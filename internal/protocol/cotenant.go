package protocol

import (
	"errors"

	"sdimm/internal/config"
	"sdimm/internal/dram"
	"sdimm/internal/event"
	"sdimm/internal/telemetry"
)

// TenantMem is the memory system of a non-secure co-tenant VM sharing a
// machine with a secure (ORAM) tenant — the co-residency scenario of
// Section III-A point 3, which the paper motivates but leaves unevaluated
// ("the low ORAM-specific traffic on the main DDR bus can lead to lower
// latency for memory accesses by other non-secure threads"). Two sharing
// modes exist:
//
//   - on-channels: the tenant's LRDIMM hangs off the same bank-modelled
//     channels the ORAM baseline saturates (the Freecursive scenario);
//
//   - on-links: the tenant's LRDIMM has its own banks but shares the
//     physical host channel with SDIMM command/data traffic, so its bursts
//     contend only for link occupancy (the SDIMM scenario).
type TenantMem struct {
	eng     *event.Engine
	chans   []*dram.Channel
	mappers []*dram.Mapper
	links   []*dram.Link

	st BackendStats
}

// NewNonSecure builds the insecure baseline: the tenant memory with the
// machine to itself, each LLC miss one DRAM line access striped across the
// host channels.
func NewNonSecure(eng *event.Engine, cfg config.Config) (*TenantMem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewTenantOnChannels(eng, cfg.Org, hostChannels(eng, cfg))
}

// NewTenantOnChannels attaches the tenant to existing bank-modelled
// channels (shared with the ORAM backend that owns them).
func NewTenantOnChannels(eng *event.Engine, org config.Org, chans []*dram.Channel) (*TenantMem, error) {
	if len(chans) == 0 {
		return nil, errors.New("protocol: tenant needs at least one channel")
	}
	t := &TenantMem{eng: eng, chans: chans}
	t.st.MissLatency = &telemetry.Histogram{}
	for _, ch := range chans {
		t.mappers = append(t.mappers, dram.NewMapper(org, ch.Ranks()))
	}
	return t, nil
}

// NewTenantOnLinks gives the tenant its own LRDIMM (one quad-rank channel
// per host link) whose data bursts also occupy the shared host links.
func NewTenantOnLinks(eng *event.Engine, cfg config.Config, links []*dram.Link) (*TenantMem, error) {
	if len(links) == 0 {
		return nil, errors.New("protocol: tenant needs at least one link")
	}
	t := &TenantMem{eng: eng, links: links}
	t.st.MissLatency = &telemetry.Histogram{}
	for i := range links {
		ch := dram.NewChannel(eng, "lrdimm"+string(rune('0'+i)), cfg.Org, cfg.Timing, cfg.Org.RanksPerDIMM)
		t.chans = append(t.chans, ch)
		t.mappers = append(t.mappers, dram.NewMapper(cfg.Org, ch.Ranks()))
	}
	return t, nil
}

func (t *TenantMem) place(addr uint64) (int, dram.Coord) {
	ci := int(addr % uint64(len(t.chans)))
	return ci, t.mappers[ci].Map(addr / uint64(len(t.chans)))
}

// Read implements cpusim.Memory: the line must traverse both the bank
// pipeline and (in link mode) the shared host bus.
func (t *TenantMem) Read(addr uint64, done func()) {
	t.st.Reads++
	start := t.eng.Now()
	ci, coord := t.place(addr)
	remaining := 1
	if t.links != nil {
		remaining = 2
	}
	fin := func(event.Time) {
		remaining--
		if remaining == 0 {
			t.st.MissLatency.Add(uint64(t.eng.Now() - start))
			done()
		}
	}
	t.chans[ci].Submit(coord, false, fin)
	if t.links != nil {
		t.links[ci%len(t.links)].Transfer(64, fin)
	}
}

// Write implements cpusim.Memory (posted).
func (t *TenantMem) Write(addr uint64) {
	t.st.Writes++
	ci, coord := t.place(addr)
	t.chans[ci].Submit(coord, true, nil)
	if t.links != nil {
		t.links[ci%len(t.links)].Transfer(64, nil)
	}
}

// Channels implements Backend.
func (t *TenantMem) Channels() ([]*dram.Channel, []bool) {
	return t.chans, make([]bool, len(t.chans))
}

// Links implements Backend.
func (t *TenantMem) Links() []*dram.Link { return nil }

// Stats implements Backend.
func (t *TenantMem) Stats() BackendStats { return t.st }
