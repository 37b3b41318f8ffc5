package dram

import (
	"sdimm/internal/config"
	"sdimm/internal/event"
)

// Link models the host DDR channel when it carries CPU<->secure-buffer
// transfers rather than bank accesses (the SDIMM protocols). A transfer
// occupies the shared data bus for its burst duration and completes after a
// fixed command/response latency, so contention between SDIMMs on the same
// channel is modelled while bank timing (which the buffer hides) is not.
//
// Transfers are granular at half bursts (DDR3 burst-chop 4, 32 bytes on a
// 64-bit channel) so short commands such as PROBE do not pay for a full
// line.
type Link struct {
	eng *event.Engine

	tBurst  int64 // full-burst (one line) bus occupancy, CPU cycles
	tCmd    int64 // command-bus slot, CPU cycles
	latency int64 // command decode + CAS-style response latency

	busFree int64

	stats LinkStats
}

// LinkStats counts link traffic.
type LinkStats struct {
	Transfers uint64
	Bytes     uint64
	BusyTime  uint64 // cycles of data-bus occupancy
}

// NewLink builds a link over the given organization/timing: burst time and
// response latency follow the DDR3 parameters.
func NewLink(eng *event.Engine, org config.Org, tm config.Timing) *Link {
	r := int64(org.CPUCyclesPerMemCycle)
	return &Link{
		eng:     eng,
		tBurst:  int64(tm.TBURST) * r,
		tCmd:    r,
		latency: int64(tm.CL) * r,
	}
}

// Stats returns a snapshot of link statistics.
func (l *Link) Stats() LinkStats { return l.stats }

// Transfer moves bytes across the link and calls onDone (if non-nil) when
// the last beat lands. Zero-byte transfers model pure commands: they occupy
// one command slot and still pay the response latency.
func (l *Link) Transfer(bytes int, onDone func(now event.Time)) {
	now := int64(l.eng.Now())
	start := now
	if l.busFree > start {
		start = l.busFree
	}
	occupancy := l.occupancy(bytes)
	l.busFree = start + occupancy
	end := start + occupancy + l.latency
	l.stats.Transfers++
	l.stats.Bytes += uint64(bytes)
	l.stats.BusyTime += uint64(occupancy)
	if onDone != nil {
		// end is never in the past, so the engine passes it as now.
		l.eng.Schedule(event.Time(end), onDone)
	}
}

func (l *Link) occupancy(bytes int) int64 {
	if bytes <= 0 {
		return l.tCmd
	}
	half := l.tBurst / 2
	if half == 0 {
		half = 1
	}
	// Round up to half-burst (32 B) granularity.
	halves := int64((bytes + 31) / 32)
	return halves * half
}
