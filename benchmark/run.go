package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

type kind int

const (
	kindSeq kind = iota
	kindPipe
	kindServed
	kindSim
)

// workload is one named way of driving the stack. The names, and why each
// exists, are in BENCHMARK.json; this table says how each is built.
type workload struct {
	name    string
	kind    kind
	ring    bool
	durable bool
	// allocOps is the length, in operations from the start of the measured
	// phase, of the window allocs_per_op is taken over and heap_live_mb is
	// read at the end of. Every run reaches it, so both metrics see the same
	// operations whatever the host's speed: the tree materialises as it is
	// accessed, and a checkpoint allocates per materialised bucket.
	allocOps int
}

// cycle is how many units of the workload repeat its pattern of work, so
// that measure cuts its slices between whole cycles: the durable workload
// checkpoints every ckptEvery accesses, which is every fourth Do.
func (w workload) cycle() int {
	if w.durable {
		return ckptEvery / batchLen
	}
	return 1
}

var workloads = []workload{
	{name: "seq-path", kind: kindSeq, allocOps: 1 << 16},
	{name: "seq-ring", kind: kindSeq, ring: true, allocOps: 1 << 16},
	{name: "pipe-path", kind: kindPipe, allocOps: 1 << 16},
	{name: "pipe-durable", kind: kindPipe, durable: true, allocOps: 1 << 12},
	{name: "served-2tenant", kind: kindServed},
	{name: "sim-paper", kind: kindSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload produced.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Values    map[string]float64   // metric name → value; units come from BENCHMARK.json
	Spread    map[string]float64   // metric name → spread over the quiet slices of this run
	Segments  map[string][]float64 // metric name → its value in each slice, in time order
	Samples   int                  // latency samples of the whole run
	Quiet     int                  // slices the latency metrics are taken over
	Slices    int                  // slices the latency samples were cut into
	Notes     []string
}

func newOutcome() *outcome {
	return &outcome{Correct: true, Values: map[string]float64{}, Spread: map[string]float64{}, Segments: map[string][]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// setPhase fills the end-to-end metrics every workload derives from its
// measured phase: the counts, the heap, and — over the quiet slices, ranked
// by time per operation — throughput and CPU per operation. It returns the
// quiet slices as indices into p.Slices.
func (o *outcome) setPhase(p phase) []int {
	o.Attempted += p.Ops
	o.Failed += p.Failed
	o.Values["allocs_per_op"] = p.AllocsPerOp
	o.Values["heap_live_mb"] = p.HeapMB
	keys, rates, cpus := make([]float64, len(p.Slices)), make([]float64, len(p.Slices)), make([]float64, len(p.Slices))
	for i, s := range p.Slices {
		keys[i] = s.wall.Seconds() / float64(s.ops)
		rates[i], cpus[i] = 1/keys[i], s.cpu/float64(s.ops)
	}
	quiet := quietest(keys)
	var sum timeSlice
	var quietRates, quietCPUs []float64
	for _, i := range quiet {
		s := p.Slices[i]
		sum.ops, sum.wall, sum.cpu = sum.ops+s.ops, sum.wall+s.wall, sum.cpu+s.cpu
		quietRates, quietCPUs = append(quietRates, rates[i]), append(quietCPUs, cpus[i])
	}
	if sum.ops == 0 {
		return nil
	}
	o.Values["throughput_ops_s"], o.Values["cpu_us_per_op"] = float64(sum.ops)/sum.wall.Seconds(), sum.cpu/float64(sum.ops)
	o.Spread["throughput_ops_s"], o.Spread["cpu_us_per_op"] = spread(quietRates), spread(quietCPUs)
	o.Segments["throughput_ops_s"], o.Segments["cpu_us_per_op"] = rates, cpus
	o.note("throughput and CPU over the quietest %d of %d slices; the whole phase ran at %.6g ops/s", len(quiet), len(p.Slices), float64(p.Ops)/p.Seconds)
	return quiet
}

// sliceSamples returns the samples of each slice of p, in time order.
func (p phase) sliceSamples() [][]float64 {
	groups := make([][]float64, len(p.Slices))
	for i, s := range p.Slices {
		groups[i] = p.Samples[s.lo:s.hi]
	}
	return groups
}

// setLatency fills the latency metrics from the samples of the quiet slices;
// groups holds every slice's samples in time order.
func (o *outcome) setLatency(groups [][]float64, quiet []int) {
	l := latencyOver(groups, quiet)
	o.Values["latency_p50_us"], o.Values["latency_p90_us"] = l.P50, l.Tail
	o.Spread["latency_p50_us"], o.Spread["latency_p90_us"] = l.SpreadP50, l.SpreadTail
	var all []float64
	for _, g := range groups {
		all = append(all, g...)
	}
	if len(all) == 0 {
		return
	}
	sort.Float64s(all)
	top := supportedTail(len(all))
	o.Samples, o.Quiet, o.Slices = len(all), len(quiet), len(groups)
	o.note("latency over the quietest %d of %d slices; the whole run's %d samples have p50 %.6g us and p%g %.6g us", len(quiet), len(groups), len(all), percentile(all, 50), top, percentile(all, top))
}

// repeatSetup builds the workload's stack sc.setups times and keeps the last
// one, so setup_s is a median rather than one draw.
func repeatSetup[T any](sc scale, o *outcome, build func() (T, error), discard func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < sc.setups; i++ {
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t).Seconds())
		if i > 0 {
			discard(last)
		}
		last = v
	}
	o.Values["setup_s"], o.Spread["setup_s"] = median(times), spread(times)
	return last, nil
}

// runEndToEnd measures one workload with no observer attached.
func runEndToEnd(root string, w workload, sc scale, seed uint64, seconds float64) (*outcome, error) {
	o := newOutcome()
	switch w.kind {
	case kindSeq, kindPipe:
		var dirs []string
		defer func() {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}()
		f, err := repeatSetup(sc, o, func() (*functional, error) {
			dir := ""
			if w.durable {
				var err error
				if dir, err = workDir(root, w.name); err != nil {
					return nil, err
				}
				dirs = append(dirs, dir)
			}
			return newFunctional(sc, seed, w.ring, w.kind == kindPipe, dir, nil)
		}, (*functional).close)
		if err != nil {
			return nil, err
		}
		warm := sc.warmup
		if w.durable {
			// Full-snapshot checkpoints make durable accesses several times
			// dearer; a shorter warm-up keeps the run inside its time budget.
			warm /= 8
		}
		if err := f.warm(warm); err != nil {
			f.close()
			return nil, err
		}
		p := measure(f.unit(), seconds, 0, w.allocOps, w.cycle())
		o.setLatency(p.sliceSamples(), o.setPhase(p))
		if !w.durable {
			f.close()
			break
		}
		// Durability is only worth its cost if it holds: crash, recover from
		// the bytes on disk, and read everything back.
		bad, rep, recoverS, err := f.crashAndRecover(sc, dirs[len(dirs)-1], 1)
		if err != nil {
			return nil, err
		}
		o.Attempted += int(sc.space)
		o.Failed += bad
		o.note("recovered in %.3fs from checkpoint %d: replayed %d records, scanned %d buckets", recoverS, rep.CheckpointSeq, rep.RecordsReplayed, rep.BucketsScanned)

	case kindServed:
		s, err := repeatSetup(sc, o, func() (*served, error) { return newServed(sc, nil) }, (*served).close)
		if err != nil {
			return nil, err
		}
		defer s.close()
		if wp := s.closedLoop(seed, "warm", 0, sc.warmup/closedInFlight); wp.Failed > 0 {
			return nil, fmt.Errorf("served warm-up: %d of %d requests failed: %v", wp.Failed, wp.Ops, s.why)
		}
		// Latency comes from the open loop at a fixed offered rate, timed from
		// due times; throughput from the closed loop at a fixed depth. Each
		// gets half of the measured time.
		open := s.openLoop(seed, "main", openLoopRate, seconds/2)
		closed := s.closedLoop(seed, "main", seconds/2, 0)
		o.setPhase(closed)
		o.Attempted += open.Attempted
		o.Failed += open.Failed
		// The open loop's samples are in the order they were due, so equal
		// groups of them are slices of its time, ranked by median latency.
		slices, _ := sliceGrid(seconds / 2)
		groups := groupsOf(open.pooled(), slices)
		medians := make([]float64, len(groups))
		for i, g := range groups {
			medians[i] = median(g)
		}
		o.setLatency(groups, quietest(medians))
		if v := s.srv.Witness().Verdict(); !v.OK {
			o.Correct = false
			o.note("witness verdict red: %+v", v)
		}
		if len(s.why) > 0 {
			o.note("failed requests by cause: %v", s.why)
		}
		late := summarize(open.Late, 99)
		o.note("open loop %.0f req/s for %.1fs, generator late p50 %.0f us p99 %.0f us; closed loop %d in flight", openLoopRate, open.Seconds, late.P50, late.P99, closedInFlight)

	case kindSim:
		// Set-up for the simulator is the verification pass: every golden
		// table regenerated once and compared cell by cell, which also warms
		// the process before the timed rounds.
		t := time.Now()
		cells, differ, err := simDrift(root, sc)
		if err != nil {
			return nil, err
		}
		o.Values["setup_s"] = time.Since(t).Seconds()
		o.Attempted += cells
		o.Failed += differ
		if differ > 0 {
			o.Correct = false
		}
		o.note("sim_drift %d of %d golden cells differ", differ, cells)
		round := &simRound{o: simOptions(sc)}
		round.o.Workloads = []string{simTimedTrace}
		p := measure(round.unit, seconds, 0, 0, 1)
		o.setLatency(p.sliceSamples(), o.setPhase(p))
	}
	if o.Failed > 0 {
		o.Correct = false
	}
	return o, nil
}
