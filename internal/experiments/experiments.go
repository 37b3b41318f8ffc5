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
// worker pool and returns the per-run results keyed
// "<protocol>/<channels>ch/<workload>" (e.g. "split/2ch/mcf"). It is the
// building block the determinism-equivalence suite compares across
// Parallel settings, and the unit sdimm-bench shards when regenerating the
// paper tables.
func Campaign(o Options, protos []config.Protocol, channels int) (map[string]sim.Result, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		for _, p := range protos {
			jobs = append(jobs, job{design(p, channels).name + "/" + w, w, o.configFor(p, channels)})
		}
	}
	return runAll(jobs, o)
}

// run is one simulated design: a protocol at a channel count, optionally
// with a named tweak of its config. Its name prefixes each of its job keys.
type run struct {
	name  string
	p     config.Protocol
	ch    int
	tweak func(*config.Config)
}

// design is the untweaked run of protocol p on ch channels.
func design(p config.Protocol, ch int) run {
	return run{name: fmt.Sprintf("%v/%dch", p, ch), p: p, ch: ch}
}

// column is one table column: a metric of run of, divided by the same
// metric of run ref unless ref is the zero run.
type column struct {
	name    string
	of, ref run
	metric  func(sim.Result) float64
}

// table is one paper table: the runs it simulates on every workload and the
// columns filled from them. runs is the job order, which a merged
// Options.Telemetry shows (the last job's gauges win), so it is listed, not
// derived from the columns.
type table struct {
	title string
	runs  []run
	cols  []column
}

// build runs every run of the table on every workload in one runAll and
// fills one row per workload.
func (tb table) build(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	var jobs []job
	for _, w := range o.Workloads {
		for _, r := range tb.runs {
			cfg := o.configFor(r.p, r.ch)
			if r.tweak != nil {
				r.tweak(&cfg)
			}
			jobs = append(jobs, job{r.name + "/" + w, w, cfg})
		}
	}
	res, err := runAll(jobs, o)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(tb.cols))
	for i, c := range tb.cols {
		names[i] = c.name
	}
	t := stats.NewTable(tb.title, names...)
	for _, w := range o.Workloads {
		for _, c := range tb.cols {
			v := c.metric(res[c.of.name+"/"+w])
			if c.ref.name != "" {
				v /= c.metric(res[c.ref.name+"/"+w])
			}
			t.Set(w, c.name, v)
		}
	}
	return t, nil
}

// The metrics the tables report.
func cycles(r sim.Result) float64        { return float64(r.MeasuredCycles) }
func energyPerMiss(r sim.Result) float64 { return r.EnergyPerMiss }
func missLatency(r sim.Result) float64   { return r.AvgMissLatency }

// Fig6 reproduces Figure 6: the slowdown of Freecursive ORAM relative to a
// non-secure memory system, for 1 and 2 channels, plus the accessORAM-per-
// LLC-miss ratio the paper reports (~1.4).
func Fig6(o Options) (*stats.Table, error) {
	ns1, fc1 := design(config.NonSecure, 1), design(config.Freecursive, 1)
	ns2, fc2 := design(config.NonSecure, 2), design(config.Freecursive, 2)
	return table{"Figure 6: Freecursive slowdown vs non-secure", []run{ns1, fc1, ns2, fc2}, []column{
		{"slowdown-1ch", fc1, ns1, cycles},
		{"slowdown-2ch", fc2, ns2, cycles},
		{"accessORAM/miss", fc1, run{}, func(r sim.Result) float64 { return r.AccessesPerMiss }},
	}}.build(o)
}

// Fig8 reproduces Figure 8: normalized execution time of the single-channel
// SDIMM designs (INDEP-2, SPLIT-2) relative to single-channel Freecursive.
func Fig8(o Options) (*stats.Table, error) {
	return normalizedTime(o, 1, []config.Protocol{config.Independent, config.Split},
		"Figure 8: single-channel normalized execution time")
}

// Fig9 reproduces Figure 9: normalized execution time of the double-channel
// designs (INDEP-4, SPLIT-4, INDEP-SPLIT) relative to 2-channel Freecursive.
func Fig9(o Options) (*stats.Table, error) {
	return normalizedTime(o, 2,
		[]config.Protocol{config.Independent, config.Split, config.IndepSplit},
		"Figure 9: double-channel normalized execution time")
}

func normalizedTime(o Options, channels int, protos []config.Protocol, title string) (*stats.Table, error) {
	base := design(config.Freecursive, channels)
	tb := table{title: title, runs: []run{base}}
	for _, p := range protos {
		r := design(p, channels)
		tb.runs = append(tb.runs, r)
		tb.cols = append(tb.cols, column{p.String(), r, base, cycles})
	}
	return tb.build(o)
}

// Fig10 reproduces Figure 10: memory energy per access normalized to the
// non-secure baseline, for Freecursive and the best SDIMM design on each
// channel count (SPLIT-2 and INDEP-SPLIT in the paper).
func Fig10(o Options) (*stats.Table, error) {
	ns1, fc1, s1 := design(config.NonSecure, 1), design(config.Freecursive, 1), design(config.Split, 1)
	ns2, fc2, is2 := design(config.NonSecure, 2), design(config.Freecursive, 2), design(config.IndepSplit, 2)
	return table{"Figure 10: memory energy overhead vs non-secure", []run{ns1, ns2, fc1, s1, fc2, is2}, []column{
		{"freecursive-1ch", fc1, ns1, energyPerMiss},
		{"split2-1ch", s1, ns1, energyPerMiss},
		{"freecursive-2ch", fc2, ns2, energyPerMiss},
		{"indep-split-2ch", is2, ns2, energyPerMiss},
	}}.build(o)
}

// Fig11 reproduces Figure 11: normalized execution time (best SDIMM design
// vs Freecursive) across ORAM tree depths, with and without the on-chip
// ORAM cache. Columns are labelled L<levels>[-nc].
func Fig11(o Options, levels []int) (*stats.Table, error) {
	if len(levels) == 0 {
		levels = []int{20, 22, 24, 26, 28}
	}
	tb := table{title: "Figure 11: normalized time (SPLIT-2 vs Freecursive) across ORAM depth"}
	for _, l := range levels {
		for _, cached := range []int{7, 0} {
			at := func(p config.Protocol) run {
				return run{fmt.Sprintf("%v/L%d/c%d", p, l, cached), p, 1, func(c *config.Config) {
					c.ORAM.Levels, c.ORAM.CachedLevels = l, cached
				}}
			}
			fc, sp := at(config.Freecursive), at(config.Split)
			col := fmt.Sprintf("L%d", l)
			if cached == 0 {
				col += "-nc"
			}
			tb.runs = append(tb.runs, fc, sp)
			tb.cols = append(tb.cols, column{col, sp, fc, cycles})
		}
	}
	return tb.build(o)
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
	fc1, i1, s1, i2 := design(config.Freecursive, 1), design(config.Independent, 1),
		design(config.Split, 1), design(config.Independent, 2)
	perAccess := func(r sim.Result) float64 { return float64(r.HostBytes) / float64(r.AccessORAMs) }
	return table{"Off-DIMM traffic fraction vs Freecursive", []run{fc1, i1, s1, i2}, []column{
		{"indep-2", i1, fc1, perAccess},
		{"split-2", s1, fc1, perAccess},
		{"indep-4", i2, fc1, perAccess},
	}}.build(o)
}

// Ring compares the ring-eviction backend against Independent at one
// channel: relative execution time per LLC miss, and the on-DIMM byte
// ratio. Ring reads replay as read-only paths — writeback rides the
// deterministic eviction pointer every A accesses — so the local-bus
// traffic drops well below Independent's full read+write paths while the
// host-visible wire shape stays identical.
func Ring(o Options) (*stats.Table, error) {
	i1, r1 := design(config.Independent, 1), design(config.Ring, 1)
	return table{"Ring eviction vs Independent (1ch)", []run{i1, r1}, []column{
		{"rel-time", r1, i1, sim.Result.CyclesPerMiss},
		{"local-bytes", r1, i1, func(r sim.Result) float64 { return float64(r.LocalBytes) }},
	}}.build(o)
}

// Latency reproduces the Section IV-B latency claim: average LLC-miss
// latency of SPLIT-4 and INDEP-SPLIT relative to 2-channel Freecursive
// (the paper reports reductions of 41% and 63%).
func Latency(o Options) (*stats.Table, error) {
	fc2, s2, is2 := design(config.Freecursive, 2), design(config.Split, 2), design(config.IndepSplit, 2)
	return table{"Relative LLC-miss latency vs 2ch Freecursive", []run{fc2, s2, is2}, []column{
		{"split-4", s2, fc2, missLatency},
		{"indep-split", is2, fc2, missLatency},
	}}.build(o)
}

// LowPower reproduces the Section III-E claim: the rank-per-subtree layout
// costs at most a few percent of performance (the paper says ≤ 4%) while
// enabling rank power-down.
func LowPower(o Options) (*stats.Table, error) {
	on := run{name: "lp-on", p: config.Independent, ch: 1}
	off := run{"lp-off", config.Independent, 1, func(c *config.Config) { c.LowPower = false }}
	return table{"Low-power layout: perf cost and background saving", []run{on, off}, []column{
		{"time-ratio", on, off, cycles},
		{"bg-energy-ratio", on, off, func(r sim.Result) float64 { return r.Energy.Background }},
	}}.build(o)
}

// Area reports the secure-buffer area estimate (Section IV-B).
func Area() sdimm.AreaEstimate { return sdimm.Area() }

// Overflow runs the Independent protocol and reports the in-vivo stash and
// transfer-queue occupancy maxima — the empirical counterpart of the
// Section IV-C models (Figure 13): with the drain policy on, neither the
// normal stash nor the transfer queue should approach its capacity.
func Overflow(o Options) (*stats.Table, error) {
	i2 := design(config.Independent, 2)
	return table{"Independent protocol: stash / transfer-queue maxima", []run{i2}, []column{
		{"stash-peak", i2, run{}, func(r sim.Result) float64 { return float64(r.Backend.StashPeak) }},
		{"transfer-peak", i2, run{}, func(r sim.Result) float64 { return float64(r.Backend.TransferPeak) }},
		{"overflows", i2, run{}, func(r sim.Result) float64 { return float64(r.Backend.TransferOverflows) }},
		{"extra-drains", i2, run{}, func(r sim.Result) float64 { return float64(r.Backend.ExtraDrains) }},
	}}.build(o)
}
