package protocol

import (
	"sdimm/internal/config"
	"sdimm/internal/dram"
	"sdimm/internal/event"
	"sdimm/internal/stats"
)

// NonSecure is the insecure baseline: each LLC miss is one DRAM line access
// striped across the host channels.
type NonSecure struct {
	eng     *event.Engine
	chans   []*dram.Channel
	mappers []*dram.Mapper
	st      BackendStats
}

// NewNonSecure builds the non-secure backend.
func NewNonSecure(eng *event.Engine, cfg config.Config) (*NonSecure, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := &NonSecure{eng: eng}
	ns.st.MissLatency = stats.NewHistogram(64, 512)
	for c := 0; c < cfg.Org.Channels; c++ {
		ch := dram.NewChannel(eng, chName(c), cfg.Org, cfg.Timing, cfg.Org.RanksPerChannel())
		ns.chans = append(ns.chans, ch)
		ns.mappers = append(ns.mappers, dram.NewMapper(cfg.Org, ch.Ranks()))
	}
	return ns, nil
}

func chName(i int) string { return string(rune('A'+i)) + "-host" }

func (ns *NonSecure) place(addr uint64) (int, dram.Coord) {
	ci := int(addr % uint64(len(ns.chans)))
	return ci, ns.mappers[ci].Map(addr / uint64(len(ns.chans)))
}

// Read implements Backend.
func (ns *NonSecure) Read(addr uint64, done func()) {
	ns.st.Reads++
	start := ns.eng.Now()
	ci, coord := ns.place(addr)
	ns.chans[ci].Submit(coord, false, func(now event.Time) {
		ns.st.MissLatency.Add(uint64(now - start))
		done()
	})
}

// Write implements Backend.
func (ns *NonSecure) Write(addr uint64) {
	ns.st.Writes++
	ci, coord := ns.place(addr)
	ns.chans[ci].Submit(coord, true, nil)
}

// Channels implements Backend.
func (ns *NonSecure) Channels() ([]*dram.Channel, []bool) {
	local := make([]bool, len(ns.chans))
	return ns.chans, local
}

// Links implements Backend.
func (ns *NonSecure) Links() []*dram.Link { return nil }

// Stats implements Backend.
func (ns *NonSecure) Stats() BackendStats { return ns.st }
