// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): the Freecursive slowdown (Figure 6), the
// single- and double-channel SDIMM speedups (Figures 8 and 9), the memory
// energy comparison (Figure 10), the tree-depth sensitivity sweep
// (Figure 11), the transfer-queue overflow models (Figure 13), and the
// textual results (off-DIMM traffic fractions, latency reductions, the
// low-power penalty, and the buffer area estimate).
//
// Absolute cycle counts differ from the paper (synthetic traces, reimplemented
// DRAM model); the shapes — who wins, by what rough factor — are the
// reproduction target. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdimm/internal/config"
	"sdimm/internal/queueing"
	"sdimm/internal/sdimm"
	"sdimm/internal/sim"
	"sdimm/internal/stats"
	"sdimm/internal/telemetry"
	"sdimm/internal/trace"
)

// Options scales the experiments. Zero values take defaults sized for a
// few-minute full reproduction run.
type Options struct {
	Warmup    int      // warmup records per run (default 400)
	Measure   int      // measured records per run (default 800)
	Levels    int      // ORAM tree levels (default 28)
	Seed      uint64   // base seed (default 1)
	Workloads []string // default: all 10 profiles
	Parallel  int      // concurrent simulations (default NumCPU)
	// Telemetry, when set, aggregates metrics from every simulation of
	// the experiment into one registry (dram.*, protocol.*, sim.*). Each
	// simulation runs against its own private registry; the shards are
	// merged into this one in job order after all runs complete, so the
	// aggregate is bit-identical at any Parallel setting.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 400
	}
	if o.Measure == 0 {
		o.Measure = 800
	}
	if o.Levels == 0 {
		o.Levels = 28
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Workloads) == 0 {
		for _, p := range trace.Profiles() {
			o.Workloads = append(o.Workloads, p.Name)
		}
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

func (o Options) configFor(p config.Protocol, channels int) config.Config {
	cfg := config.Default(p, channels)
	cfg.ORAM.Levels = o.Levels
	cfg.WarmupAccesses = o.Warmup
	cfg.MeasureAccesses = o.Measure
	cfg.Seed = o.Seed
	return cfg
}

// job is one simulation to run.
type job struct {
	key      string
	workload string
	cfg      config.Config
}

// runAll executes jobs across a bounded worker pool, returning results by
// key. Determinism does not depend on scheduling: every simulation is
// single-threaded over its own state and its own private telemetry
// registry, and the per-job shards — results, errors, registries — land in
// job-indexed slots that are folded together in job order after the pool
// drains. A Parallel: 1 campaign and a Parallel: N campaign therefore
// return identical results and an identical merged registry.
func runAll(jobs []job, o Options) (map[string]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	regs := make([]*telemetry.Registry, len(jobs))
	// o.Parallel workers take jobs in list order from a shared counter, so
	// which jobs overlap does not depend on the Go scheduler.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(o.Parallel, 1), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				var tel *sim.Telemetry
				if o.Telemetry != nil {
					regs[i] = telemetry.NewRegistry()
					tel = &sim.Telemetry{Registry: regs[i]}
				}
				results[i], errs[i] = sim.Run(jobs[i].cfg, jobs[i].workload, tel)
			}
		}()
	}
	wg.Wait()
	// Deterministic merge barrier: fold shards in job order.
	out := make(map[string]sim.Result, len(jobs))
	var firstErr error
	for i, j := range jobs {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", j.key, errs[i])
			}
			continue
		}
		out[j.key] = results[i]
		o.Telemetry.Merge(regs[i])
	}
	return out, firstErr
}

// Campaign runs the full workload × backend grid — every configured
// workload against every protocol at the given channel count — across the
// worker pool and returns the per-run results keyed by Key. It is the
// building block the determinism-equivalence suite compares across
// Parallel settings, and the unit sdimm-bench shards when regenerating the
// paper tables.
func Campaign(o Options, protos []config.Protocol, channels int) (map[string]sim.Result, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		for _, p := range protos {
			jobs = append(jobs, job{key(p, channels, w), w, o.configFor(p, channels)})
		}
	}
	return runAll(jobs, o)
}

// Key names one campaign run: protocol, channel count, workload.
func Key(p config.Protocol, channels int, workload string) string {
	return key(p, channels, workload)
}

func key(p config.Protocol, ch int, w string) string {
	return fmt.Sprintf("%v/%dch/%s", p, ch, w)
}

// Fig6 reproduces Figure 6: the slowdown of Freecursive ORAM relative to a
// non-secure memory system, for 1 and 2 channels, plus the accessORAM-per-
// LLC-miss ratio the paper reports (~1.4).
func Fig6(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		for _, ch := range []int{1, 2} {
			jobs = append(jobs,
				job{key(config.NonSecure, ch, w), w, o.configFor(config.NonSecure, ch)},
				job{key(config.Freecursive, ch, w), w, o.configFor(config.Freecursive, ch)})
		}
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: Freecursive slowdown vs non-secure",
		"slowdown-1ch", "slowdown-2ch", "accessORAM/miss")
	for _, w := range o.Workloads {
		for _, ch := range []int{1, 2} {
			ns := res[key(config.NonSecure, ch, w)]
			fc := res[key(config.Freecursive, ch, w)]
			t.Set(w, fmt.Sprintf("slowdown-%dch", ch),
				float64(fc.MeasuredCycles)/float64(ns.MeasuredCycles))
		}
		t.Set(w, "accessORAM/miss", res[key(config.Freecursive, 1, w)].AccessesPerMiss)
	}
	return t, nil
}

// Fig8 reproduces Figure 8: normalized execution time of the single-channel
// SDIMM designs (INDEP-2, SPLIT-2) relative to single-channel Freecursive.
func Fig8(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	return normalizedTime(o, 1, []config.Protocol{config.Independent, config.Split},
		"Figure 8: single-channel normalized execution time")
}

// Fig9 reproduces Figure 9: normalized execution time of the double-channel
// designs (INDEP-4, SPLIT-4, INDEP-SPLIT) relative to 2-channel Freecursive.
func Fig9(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	return normalizedTime(o, 2,
		[]config.Protocol{config.Independent, config.Split, config.IndepSplit},
		"Figure 9: double-channel normalized execution time")
}

func normalizedTime(o Options, channels int, protos []config.Protocol, title string) (*stats.Table, error) {
	var jobs []job
	for _, w := range o.Workloads {
		jobs = append(jobs, job{key(config.Freecursive, channels, w), w, o.configFor(config.Freecursive, channels)})
		for _, p := range protos {
			jobs = append(jobs, job{key(p, channels, w), w, o.configFor(p, channels)})
		}
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(protos))
	for i, p := range protos {
		cols[i] = p.String()
	}
	t := stats.NewTable(title, cols...)
	for _, w := range o.Workloads {
		base := res[key(config.Freecursive, channels, w)]
		for _, p := range protos {
			r := res[key(p, channels, w)]
			t.Set(w, p.String(), float64(r.MeasuredCycles)/float64(base.MeasuredCycles))
		}
	}
	return t, nil
}

// Fig10 reproduces Figure 10: memory energy per access normalized to the
// non-secure baseline, for Freecursive and the best SDIMM design on each
// channel count (SPLIT-2 and INDEP-SPLIT in the paper).
func Fig10(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	type cfgRow struct {
		name string
		p    config.Protocol
		ch   int
	}
	rows := []cfgRow{
		{"freecursive-1ch", config.Freecursive, 1},
		{"split2-1ch", config.Split, 1},
		{"freecursive-2ch", config.Freecursive, 2},
		{"indep-split-2ch", config.IndepSplit, 2},
	}
	var jobs []job
	for _, w := range o.Workloads {
		for _, ch := range []int{1, 2} {
			jobs = append(jobs, job{key(config.NonSecure, ch, w), w, o.configFor(config.NonSecure, ch)})
		}
		for _, r := range rows {
			jobs = append(jobs, job{key(r.p, r.ch, w), w, o.configFor(r.p, r.ch)})
		}
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(rows))
	for i, r := range rows {
		cols[i] = r.name
	}
	t := stats.NewTable("Figure 10: memory energy overhead vs non-secure", cols...)
	for _, w := range o.Workloads {
		for _, r := range rows {
			ns := res[key(config.NonSecure, r.ch, w)]
			pr := res[key(r.p, r.ch, w)]
			t.Set(w, r.name, pr.EnergyPerMiss/ns.EnergyPerMiss)
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: normalized execution time (best SDIMM design
// vs Freecursive) across ORAM tree depths, with and without the on-chip
// ORAM cache. Columns are labelled L<levels>[-nc].
func Fig11(o Options, levels []int) (*stats.Table, error) {
	o = o.withDefaults()
	if len(levels) == 0 {
		levels = []int{20, 22, 24, 26, 28}
	}
	var jobs []job
	for _, w := range o.Workloads {
		for _, l := range levels {
			for _, cached := range []int{7, 0} {
				for _, p := range []config.Protocol{config.Freecursive, config.Split} {
					cfg := o.configFor(p, 1)
					cfg.ORAM.Levels = l
					cfg.ORAM.CachedLevels = cached
					jobs = append(jobs, job{fmt.Sprintf("%v/L%d/c%d/%s", p, l, cached, w), w, cfg})
				}
			}
		}
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, l := range levels {
		cols = append(cols, fmt.Sprintf("L%d", l), fmt.Sprintf("L%d-nc", l))
	}
	t := stats.NewTable("Figure 11: normalized time (SPLIT-2 vs Freecursive) across ORAM depth", cols...)
	for _, w := range o.Workloads {
		for _, l := range levels {
			for _, cached := range []int{7, 0} {
				base := res[fmt.Sprintf("%v/L%d/c%d/%s", config.Freecursive, l, cached, w)]
				sp := res[fmt.Sprintf("%v/L%d/c%d/%s", config.Split, l, cached, w)]
				col := fmt.Sprintf("L%d", l)
				if cached == 0 {
					col += "-nc"
				}
				t.Set(w, col, float64(sp.MeasuredCycles)/float64(base.MeasuredCycles))
			}
		}
	}
	return t, nil
}

// Fig13a reproduces Figure 13a: the probability a transfer queue of the
// given sizes overflows within s steps, under the passive random walk.
func Fig13a(steps []int, limits []int) ([]stats.Series, error) {
	if len(steps) == 0 {
		steps = []int{100_000, 200_000, 400_000, 800_000}
	}
	if len(limits) == 0 {
		limits = []int{16, 64, 256, 1024}
	}
	w := queueing.DefaultWalk()
	var out []stats.Series
	for _, k := range limits {
		s := stats.Series{Name: fmt.Sprintf("limit=%d", k)}
		for _, n := range steps {
			p, err := w.OverflowProbability(n, k)
			if err != nil {
				return nil, err
			}
			s.Add(float64(n), p)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig13b reproduces Figure 13b: the stationary M/M/1/K overflow probability
// for different drain probabilities p and queue sizes K.
func Fig13b(probs []float64, sizes []int) ([]stats.Series, error) {
	if len(probs) == 0 {
		probs = []float64{0.01, 0.05, 0.1, 0.25, 0.5}
	}
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64}
	}
	var out []stats.Series
	for _, p := range probs {
		s := stats.Series{Name: fmt.Sprintf("p=%g", p)}
		for _, k := range sizes {
			v, err := queueing.MM1KFullProbability(p, k)
			if err != nil {
				return nil, err
			}
			s.Add(float64(k), v)
		}
		out = append(out, s)
	}
	return out, nil
}

// OffDIMM reproduces the off-DIMM traffic numbers of Section IV-B: host-
// channel bytes per accessORAM as a fraction of the Freecursive baseline.
func OffDIMM(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		jobs = append(jobs,
			job{key(config.Freecursive, 1, w), w, o.configFor(config.Freecursive, 1)},
			job{key(config.Independent, 1, w), w, o.configFor(config.Independent, 1)},
			job{key(config.Split, 1, w), w, o.configFor(config.Split, 1)},
			job{key(config.Independent, 2, w), w, o.configFor(config.Independent, 2)})
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Off-DIMM traffic fraction vs Freecursive",
		"indep-2", "split-2", "indep-4")
	for _, w := range o.Workloads {
		base := res[key(config.Freecursive, 1, w)]
		perBase := float64(base.HostBytes) / float64(base.AccessORAMs)
		set := func(col string, r sim.Result) {
			t.Set(w, col, (float64(r.HostBytes)/float64(r.AccessORAMs))/perBase)
		}
		set("indep-2", res[key(config.Independent, 1, w)])
		set("split-2", res[key(config.Split, 1, w)])
		set("indep-4", res[key(config.Independent, 2, w)])
	}
	return t, nil
}

// Ring compares the ring-eviction backend against Independent at one
// channel: relative execution time per LLC miss, and the on-DIMM byte
// ratio. Ring reads replay as read-only paths — writeback rides the
// deterministic eviction pointer every A accesses — so the local-bus
// traffic drops well below Independent's full read+write paths while the
// host-visible wire shape stays identical.
func Ring(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		jobs = append(jobs,
			job{key(config.Independent, 1, w), w, o.configFor(config.Independent, 1)},
			job{key(config.Ring, 1, w), w, o.configFor(config.Ring, 1)})
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ring eviction vs Independent (1ch)", "rel-time", "local-bytes")
	for _, w := range o.Workloads {
		base := res[key(config.Independent, 1, w)]
		r := res[key(config.Ring, 1, w)]
		t.Set(w, "rel-time", r.CyclesPerMiss()/base.CyclesPerMiss())
		t.Set(w, "local-bytes", float64(r.LocalBytes)/float64(base.LocalBytes))
	}
	return t, nil
}

// Latency reproduces the Section IV-B latency claim: average LLC-miss
// latency of SPLIT-4 and INDEP-SPLIT relative to 2-channel Freecursive
// (the paper reports reductions of 41% and 63%).
func Latency(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		jobs = append(jobs,
			job{key(config.Freecursive, 2, w), w, o.configFor(config.Freecursive, 2)},
			job{key(config.Split, 2, w), w, o.configFor(config.Split, 2)},
			job{key(config.IndepSplit, 2, w), w, o.configFor(config.IndepSplit, 2)})
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Relative LLC-miss latency vs 2ch Freecursive", "split-4", "indep-split")
	for _, w := range o.Workloads {
		base := res[key(config.Freecursive, 2, w)]
		t.Set(w, "split-4", res[key(config.Split, 2, w)].AvgMissLatency/base.AvgMissLatency)
		t.Set(w, "indep-split", res[key(config.IndepSplit, 2, w)].AvgMissLatency/base.AvgMissLatency)
	}
	return t, nil
}

// LowPower reproduces the Section III-E claim: the rank-per-subtree layout
// costs at most a few percent of performance (the paper says ≤ 4%) while
// enabling rank power-down.
func LowPower(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		on := o.configFor(config.Independent, 1)
		off := o.configFor(config.Independent, 1)
		off.LowPower = false
		jobs = append(jobs,
			job{"lp-on/" + w, w, on},
			job{"lp-off/" + w, w, off})
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Low-power layout: perf cost and background saving",
		"time-ratio", "bg-energy-ratio")
	for _, w := range o.Workloads {
		on := res["lp-on/"+w]
		off := res["lp-off/"+w]
		t.Set(w, "time-ratio", float64(on.MeasuredCycles)/float64(off.MeasuredCycles))
		t.Set(w, "bg-energy-ratio", on.Energy.Background/off.Energy.Background)
	}
	return t, nil
}

// Area reports the secure-buffer area estimate (Section IV-B).
func Area() sdimm.AreaEstimate { return sdimm.Area() }

// Overflow runs the Independent protocol and reports the in-vivo stash and
// transfer-queue occupancy maxima — the empirical counterpart of the
// Section IV-C models (Figure 13): with the drain policy on, neither the
// normal stash nor the transfer queue should approach its capacity.
func Overflow(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		jobs = append(jobs, job{key(config.Independent, 2, w), w, o.configFor(config.Independent, 2)})
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Independent protocol: stash / transfer-queue maxima",
		"stash-peak", "transfer-peak", "overflows", "extra-drains")
	for _, w := range o.Workloads {
		r := res[key(config.Independent, 2, w)]
		t.Set(w, "stash-peak", float64(r.Backend.StashPeak))
		t.Set(w, "transfer-peak", float64(r.Backend.TransferPeak))
		t.Set(w, "overflows", float64(r.Backend.TransferOverflows))
		t.Set(w, "extra-drains", float64(r.Backend.ExtraDrains))
	}
	return t, nil
}
