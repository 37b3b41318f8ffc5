// Package sim wires the full system together — trace-driven core + LLC,
// protocol backend, DRAM channels/links, and the energy model — and runs
// the paper's methodology: fast-forward a warmup window of trace records to
// heat the LLC/PLB/position map, then measure cycle-accurate execution of
// the measurement window (Section IV-A).
package sim

import (
	"errors"
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/cpusim"
	"sdimm/internal/dram"
	"sdimm/internal/energy"
	"sdimm/internal/event"
	"sdimm/internal/freecursive"
	"sdimm/internal/protocol"
	"sdimm/internal/telemetry"
	"sdimm/internal/trace"
)

// Telemetry bundles the observability hooks threaded through a run. The
// zero value disables everything; Registry alone enables metrics; Trace
// additionally collects per-access spans.
type Telemetry struct {
	// Registry receives counters, gauges, and histograms from every
	// instrumented layer (dram.*, protocol.*, and — when the backend
	// supports it — per-phase access spans).
	Registry *telemetry.Registry
	// Trace asks the run to record span events. The tracer is built over
	// the event engine's clock, so span timestamps are simulated CPU
	// cycles (rendered as microseconds by Chrome trace viewers).
	Trace bool
	// Tracer is populated by the run when Trace is set; read it after the
	// run returns to export the collected events.
	Tracer *telemetry.Tracer
}

// Result is the outcome of one simulation run.
type Result struct {
	Protocol config.Protocol
	Workload string

	// MeasuredCycles covers the measurement window (post-warmup).
	MeasuredCycles uint64
	TotalCycles    uint64

	Records      uint64
	LLCMisses    uint64
	Instructions uint64

	AccessORAMs     uint64
	AccessesPerMiss float64 // frontend accessORAMs per LLC miss
	AvgMissLatency  float64 // CPU cycles per LLC miss

	HostBytes  uint64 // bytes that crossed the processor pins
	LocalBytes uint64 // bytes that stayed on a DIMM

	// HostBusUtil / LocalBusUtil are the mean data-bus utilizations over
	// the run (fraction of peak bandwidth; DDR3-1600 moves 8 B per CPU
	// cycle per channel at the paper's clocks).
	HostBusUtil  float64
	LocalBusUtil float64

	Energy        energy.Breakdown
	EnergyPerMiss float64 // Joules per LLC miss

	Backend protocol.BackendStats
}

// CyclesPerMiss normalizes measured time by measured misses.
func (r Result) CyclesPerMiss() float64 {
	m := r.LLCMisses
	if m == 0 {
		return 0
	}
	return float64(r.MeasuredCycles) / float64(m)
}

// Run executes one configuration against one named workload profile; tel
// (may be nil) attaches telemetry as RunTrace describes.
func Run(cfg config.Config, workload string, tel *Telemetry) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		return Result{}, err
	}
	total := cfg.WarmupAccesses + cfg.MeasureAccesses
	if total <= 0 {
		return Result{}, errors.New("sim: zero-length run")
	}
	recs, err := prof.Generate(total, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	return RunTrace(cfg, workload, recs, nil, tel)
}

// BusObserver sees every command on every modelled (untrusted) DRAM bus —
// the attacker's vantage point of the threat model. channel names the bus;
// local marks an on-DIMM bus (visible to a physical attacker too, but not
// from the motherboard).
type BusObserver func(channel string, local bool, now event.Time, kind dram.CommandKind, coord dram.Coord)

// RunTrace executes one configuration against an explicit record stream;
// the first cfg.WarmupAccesses records are the warmup window. obs (may be
// nil) is attached to every DRAM channel — package attacker captures address
// traces this way. With tel (may be nil) the DRAM channels mirror their stats
// into tel.Registry, the backend's miss-latency histogram is registered, and
// — when tel.Trace is set — a tracer records access spans on the engine
// clock (backends that implement SetTelemetry emit them; others run
// untraced).
func RunTrace(cfg config.Config, name string, recs []trace.Record, obs BusObserver, tel *Telemetry) (Result, error) {
	eng := &event.Engine{}
	backend, err := protocol.New(eng, cfg)
	if err != nil {
		return Result{}, err
	}
	if tel != nil {
		if tel.Trace {
			tel.Tracer = telemetry.NewTracer()
		}
		if tb, ok := backend.(interface {
			SetTelemetry(*telemetry.Registry, *telemetry.Tracer)
		}); ok {
			tb.SetTelemetry(tel.Registry, tel.Tracer)
		} else if tel.Registry != nil {
			tel.Registry.AddHistogram("protocol.miss_latency", backend.Stats().MissLatency)
		}
		if tel.Registry != nil {
			chans, _ := backend.Channels()
			for _, ch := range chans {
				ch.EnableTelemetry(tel.Registry)
			}
		}
	}
	if obs != nil {
		chans, local := backend.Channels()
		for i, ch := range chans {
			ch := ch
			isLocal := local[i]
			ch.Observer = func(now event.Time, kind dram.CommandKind, coord dram.Coord) {
				obs(ch.Name, isLocal, now, kind, coord)
			}
		}
	}
	core, err := cpusim.New(eng, backend, cpusim.Config{
		LLCLines:   cfg.LLCBytes / cfg.Org.LineBytes,
		LLCWays:    cfg.LLCWays,
		LLCLatency: cfg.LLCLatency,
		ROB:        cfg.ROBSize,
		MarkAt:     cfg.WarmupAccesses,
	}, recs)
	if err != nil {
		return Result{}, err
	}

	core.Start(nil)
	// Run until the whole trace (including posted work) completes. The
	// event count bound guards against a wedged configuration: refresh
	// alone generates one event per rank per tREFI, so a generous budget
	// scales with simulated work, not wall-clock time.
	eng.RunWhile(func() bool { return !core.Done() })
	if !core.Done() {
		return Result{}, fmt.Errorf("sim: %v/%s did not converge", cfg.Protocol, name)
	}

	cs := core.Stats()
	res := Result{
		Protocol:       cfg.Protocol,
		Workload:       name,
		TotalCycles:    cs.Cycles,
		MeasuredCycles: cs.Cycles - cs.MarkCycle,
		Records:        cs.Records,
		LLCMisses:      cs.LLCMisses - cs.MarkMisses,
		Instructions:   cs.Instructions,
		AvgMissLatency: cs.AvgMissLatency(),
		Backend:        backend.Stats(),
	}
	res.AccessORAMs = res.Backend.AccessORAMs
	if fe, ok := backend.(interface{ Frontend() *freecursive.Frontend }); ok {
		res.AccessesPerMiss = fe.Frontend().Stats().AccessesPerMiss()
	}
	if tel != nil && tel.Registry != nil {
		tel.Registry.Counter("sim.cycles").Add(cs.Cycles)
		tel.Registry.Counter("sim.llc_misses").Add(res.LLCMisses)
		tel.Registry.Counter("sim.records").Add(cs.Records)
	}

	params := energy.Default()
	chans, local := backend.Channels()
	for i, ch := range chans {
		st := ch.Stats()
		res.Energy.Add(params.Channel(st, cfg.Org.CPUCyclesPerMemCycle, local[i]))
		bytes := st.BytesRead + st.BytesWrite
		if local[i] {
			res.LocalBytes += bytes
		} else {
			res.HostBytes += bytes
		}
	}
	for _, l := range backend.Links() {
		ls := l.Stats()
		res.Energy.Add(params.HostTransfer(ls.Bytes))
		res.HostBytes += ls.Bytes
	}
	if res.LLCMisses > 0 {
		res.EnergyPerMiss = res.Energy.Total() / float64(cs.LLCMisses)
	}
	if cs.Cycles > 0 {
		bytesPerCycle := 8.0 * float64(cfg.Org.CPUCyclesPerMemCycle) / 2 // 8 B per mem cycle
		hostChannels := float64(cfg.Org.Channels)
		res.HostBusUtil = float64(res.HostBytes) / (bytesPerCycle * hostChannels * float64(cs.Cycles))
		nLocal := 0
		for _, l := range local {
			if l {
				nLocal++
			}
		}
		if nLocal > 0 {
			res.LocalBusUtil = float64(res.LocalBytes) / (bytesPerCycle * float64(nLocal) * float64(cs.Cycles))
		}
	}
	return res, nil
}
