package sdimm

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Worker pool unit tests.
// ---------------------------------------------------------------------------

func TestWorkerPoolFIFOPerWorker(t *testing.T) {
	// Parallelism 1 is the inline path: it is held to the same order.
	for _, parallelism := range []int{8, 1} {
		p := newWorkerPool(3, parallelism, 16)
		defer p.close()
		var mu sync.Mutex
		var wg sync.WaitGroup
		got := make([][]int, 3)
		for round := 0; round < 50; round++ {
			for w := 0; w < 3; w++ {
				p.submitWG(w, &wg, func(member int) {
					mu.Lock()
					got[member] = append(got[member], round)
					mu.Unlock()
				})
			}
		}
		wg.Wait()
		for w := 0; w < 3; w++ {
			if len(got[w]) != 50 {
				t.Fatalf("parallelism %d: worker %d ran %d of 50 tasks", parallelism, w, len(got[w]))
			}
			for i, v := range got[w] {
				if v != i {
					t.Fatalf("parallelism %d: worker %d executed out of order: %v", parallelism, w, got[w])
				}
			}
		}
	}
}

func TestWorkerPoolParallelismOne(t *testing.T) {
	// With parallelism 1, tasks must never overlap even across workers.
	p := newWorkerPool(4, 1, 4)
	defer p.close()
	var active, maxActive int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		w := i % 4
		p.submitWG(w, &wg, func(int) {
			mu.Lock()
			active++
			if active > maxActive {
				maxActive = active
			}
			mu.Unlock()
			mu.Lock()
			active--
			mu.Unlock()
		})
	}
	wg.Wait()
	if maxActive != 1 {
		t.Fatalf("parallelism 1 pool had %d overlapping tasks", maxActive)
	}
}

func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := newWorkerPool(2, 2, 2)
	n := 0
	var wg sync.WaitGroup
	p.submitWG(0, &wg, func(int) { n++ })
	wg.Wait()
	p.close()
	p.close() // second close must not panic
	if n != 1 {
		t.Fatalf("task ran %d times", n)
	}
}

// TestPipelineParallelismOneStartsNoGoroutines: Parallelism 1 is the inline
// reference on both protocols — building the cluster or its pipeline starts
// no goroutine, and neither does work on it, sequential or batched, the
// journal append of a durable cluster included.
func TestPipelineParallelismOneStartsNoGoroutines(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 64)
	ops := make([]BatchOp, 32)
	for i := range ops {
		ops[i] = BatchOp{Addr: uint64(i % 20), Write: i%2 == 0, Data: payload}
	}
	grew := func(what string, before int) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines, %d before", what, n, before)
		}
	}
	for _, dur := range []bool{false, true} {
		name := map[bool]string{false: "plain", true: "durable"}[dur]
		copts := ClusterOptions{SDIMMs: 4, Levels: 8, Seed: 3}
		sopts := ClusterOptions{Split: true, SDIMMs: 2, Levels: 7, Seed: 3, Parity: true}
		if dur {
			copts.Durability = &DurabilityOptions{Dir: t.TempDir(), Interval: 16}
			sopts.Durability = &DurabilityOptions{Dir: t.TempDir(), Interval: 16}
		}
		c, err := NewCluster(copts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		before := runtime.NumGoroutine()
		pipe := c.Pipeline(PipelineOptions{Window: 4, Parallelism: 1})
		defer pipe.Close()
		grew(name+" Pipeline", before)
		for _, r := range pipe.Do(ops) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		grew(name+" Do", before)

		before = runtime.NumGoroutine()
		sc, err := NewCluster(sopts)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		grew(name+" split NewCluster", before)
		spipe := sc.Pipeline(PipelineOptions{Window: 4, Parallelism: 1})
		defer spipe.Close()
		grew(name+" split Pipeline", before)
		for _, r := range spipe.Do(ops) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		grew(name+" split Do", before)
		for _, op := range ops {
			if err := sc.Write(op.Addr, payload); err != nil {
				t.Fatal(err)
			}
		}
		grew(name+" split Write", before)
	}
}

// ---------------------------------------------------------------------------
// Determinism-equivalence harness.
// ---------------------------------------------------------------------------

// engineState is everything the equivalence suite compares bit-for-bit:
// every read payload, the final position map, per-SDIMM stash occupancy,
// the full telemetry snapshot, the per-SDIMM health/link accounting, and
// for a durable run the state directory's file names (which name the
// sequence number of every checkpoint it keeps).
type engineState struct {
	Results   []BatchResult
	Errors    []string
	Positions map[uint64]uint64
	StashLens []int
	Telemetry telemetry.Snapshot
	Health    []SDIMMHealth
	Files     []string
	State     map[string]stateFile // the opened state directory, where a run compares it
}

func captureState(results []BatchResult, pos map[uint64]uint64, lens []int,
	reg *telemetry.Registry, h ClusterHealth) engineState {
	st := engineState{
		Results:   results,
		Positions: pos,
		StashLens: lens,
		Telemetry: reg.Snapshot(),
		Health:    h.SDIMMs,
	}
	for _, r := range results {
		if r.Err != nil {
			st.Errors = append(st.Errors, r.Err.Error())
		}
	}
	// Errors compare as strings; the structs carry the same text.
	for i := range st.Results {
		st.Results[i].Err = nil
	}
	return st
}

func diffState(t *testing.T, tag string, a, b engineState) {
	t.Helper()
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Errorf("%s: read payloads diverged", tag)
	}
	if !reflect.DeepEqual(a.Errors, b.Errors) {
		t.Errorf("%s: errors diverged: %v vs %v", tag, a.Errors, b.Errors)
	}
	if !reflect.DeepEqual(a.Positions, b.Positions) {
		t.Errorf("%s: final position maps diverged (%d vs %d entries)",
			tag, len(a.Positions), len(b.Positions))
	}
	if !reflect.DeepEqual(a.StashLens, b.StashLens) {
		t.Errorf("%s: stash occupancy diverged: %v vs %v", tag, a.StashLens, b.StashLens)
	}
	if !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
		t.Errorf("%s: telemetry snapshots diverged:\n--- a ---\n%s\n--- b ---\n%s",
			tag, a.Telemetry.String(), b.Telemetry.String())
	}
	if !reflect.DeepEqual(a.Health, b.Health) {
		t.Errorf("%s: health accounting diverged:\n%+v\nvs\n%+v", tag, a.Health, b.Health)
	}
	if !reflect.DeepEqual(a.Files, b.Files) {
		t.Errorf("%s: state directories diverged: %v vs %v", tag, a.Files, b.Files)
	}
	if !reflect.DeepEqual(a.State, b.State) {
		t.Errorf("%s: state directory contents diverged (%d vs %d files)", tag, len(a.State), len(b.State))
	}
}

// stateFiles lists the file names in a state directory, nil for "" (no
// durability).
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	if dir == "" {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// pipelineWorkload builds a deterministic mixed read/write op stream with
// enough address reuse to exercise the wave-breaking rule.
func pipelineWorkload(n int, space uint64) []BatchOp {
	r := rng.Stream(7, "pipeline-workload", 0)
	ops := make([]BatchOp, n)
	for i := range ops {
		addr := r.Uint64n(space)
		if r.Bool(0.2) && i > 0 {
			addr = ops[i-1].Addr // forced repeat: wave must break here
		}
		ops[i] = BatchOp{Addr: addr}
		if r.Bool(0.5) {
			ops[i].Write = true
			ops[i].Data = []byte(fmt.Sprintf("op%04d@%d", i, addr))
		}
	}
	return ops
}

// newEquivalenceCluster builds the cluster every equivalence run starts
// from. With dir set it is durable there, checkpointing every 11 records, so
// the workload's first half (120 accesses) ends one record short of a
// checkpoint.
func newEquivalenceCluster(t *testing.T, faults *fault.Injector, dir string, reg *telemetry.Registry) *Cluster {
	t.Helper()
	opts := ClusterOptions{
		SDIMMs:    4,
		Levels:    10,
		Key:       []byte("equivalence-key"),
		Seed:      23,
		Faults:    faults,
		Retry:     fault.RetryPolicy{MaxAttempts: 4, Sleep: nop},
		Telemetry: reg,
	}
	if dir != "" {
		opts.Durability = &DurabilityOptions{Dir: dir, Interval: 11}
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runPipeline executes the workload through a fresh cluster + pipeline and
// captures the full state fingerprint. dir, when set, makes the cluster
// durable there. mid, when non-nil, runs between the two halves of the
// workload (fault scheduling and membership hooks).
func runPipeline(t *testing.T, par, window int, faults *fault.Injector, dir string,
	mid func(*Cluster)) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := newEquivalenceCluster(t, faults, dir, reg)
	p := c.Pipeline(PipelineOptions{Window: window, Parallelism: par})
	defer p.Close()
	ops := pipelineWorkload(240, 60)
	half := len(ops) / 2
	results := p.Do(ops[:half])
	if mid != nil {
		mid(c)
	}
	results = append(results, p.Do(ops[half:])...)
	st := captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
	st.Files = stateFiles(t, dir)
	return st
}

// runSequential is runPipeline on the sequential path: the same cluster,
// workload and hooks, one Read or Write per op.
func runSequential(t *testing.T, faults *fault.Injector, dir string, mid func(*Cluster)) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := newEquivalenceCluster(t, faults, dir, reg)
	ops := pipelineWorkload(240, 60)
	results := make([]BatchResult, len(ops))
	for i, op := range ops {
		if i == len(ops)/2 && mid != nil {
			mid(c)
		}
		if op.Write {
			results[i].Err = c.Write(op.Addr, op.Data)
		} else {
			results[i].Data, results[i].Err = c.Read(op.Addr)
		}
	}
	st := captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
	st.Files = stateFiles(t, dir)
	return st
}

// TestPipelineWindowOneMatchesSequential pins the pipeline's semantics to
// the sequential Read/Write path: with Window 1 every wave is one access,
// and — as long as no APPEND is abandoned and re-homed (a re-home draws its
// leaves at retirement, after the next wave's schedule) — the RNG draw
// order, commit order, and append order are identical, so the two engines
// must agree bit-for-bit on everything observable. The rows cover perfect
// links, transient link faults the retry budget absorbs, and a fail-stop
// between the two halves; none of them re-homes. The durable row journals a
// topology record (a drain begins) between the halves, one access short of
// a checkpoint, so both sides must also agree on where every checkpoint
// falls: never before a run's first wave.
func TestPipelineWindowOneMatchesSequential(t *testing.T) {
	rows := []struct {
		name     string
		faults   *fault.Config // nil = perfect links
		failStop int           // member fail-stopped between the halves; -1 none
		drain    int           // member whose drain begins between the halves, durable; -1 none
	}{
		{"perfect", nil, -1, -1},
		{"transient", &fault.Config{Seed: 99, BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Stall: 0.005}, -1, -1},
		{"failstop", &fault.Config{Seed: 5}, 2, -1},
		{"durable-drain", nil, -1, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(seq bool) engineState {
				var in *fault.Injector
				if row.faults != nil {
					in = fault.NewInjector(*row.faults)
				}
				var mid func(*Cluster)
				if row.failStop >= 0 {
					mid = func(*Cluster) { in.FailStop(row.failStop) }
				}
				dir := ""
				if row.drain >= 0 {
					dir = t.TempDir()
					mid = func(c *Cluster) {
						if err := c.BeginDrain(row.drain); err != nil {
							t.Fatal(err)
						}
					}
				}
				if seq {
					return runSequential(t, in, dir, mid)
				}
				return runPipeline(t, 1, 1, in, dir, mid)
			}
			seq := run(true)
			if n := seq.Telemetry.Counters["cluster.rehomes"]; n != 0 {
				t.Fatalf("%d re-homes: the row is outside the equivalence claim", n)
			}
			diffState(t, "window-1 vs sequential", seq, run(false))
		})
	}
}

// TestPipelineParallelismEquivalence is the core determinism claim: a
// Parallelism: 1 pipeline and Parallelism: N pipelines produce bitwise
// identical results, position maps, stashes, telemetry, and health — for
// perfect links and for deterministic transient fault injection.
func TestPipelineParallelismEquivalence(t *testing.T) {
	for _, window := range []int{4, 8} {
		for _, faulty := range []bool{false, true} {
			mkInjector := func() *fault.Injector {
				if !faulty {
					return nil
				}
				return fault.NewInjector(fault.Config{
					Seed: 99, BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Stall: 0.005,
				})
			}
			base := runPipeline(t, 1, window, mkInjector(), "", nil)
			if len(base.Positions) == 0 {
				t.Fatalf("window %d: baseline run touched no addresses", window)
			}
			for _, par := range []int{2, 4, 8} {
				tag := fmt.Sprintf("window=%d faulty=%v parallelism=%d", window, faulty, par)
				got := runPipeline(t, par, window, mkInjector(), "", nil)
				diffState(t, tag, base, got)
			}
		}
	}
}

// TestPipelineEquivalenceAcrossFailStop fail-stops one SDIMM between two
// batches: detection, routing-around, and the health bookkeeping must stay
// bit-identical at every parallelism.
func TestPipelineEquivalenceAcrossFailStop(t *testing.T) {
	run := func(par int) engineState {
		in := fault.NewInjector(fault.Config{Seed: 5})
		return runPipeline(t, par, 6, in, "", func(*Cluster) { in.FailStop(2) })
	}
	base := run(1)
	found := false
	for _, h := range base.Health {
		if h.State == fault.Failed {
			found = true
		}
	}
	if !found {
		t.Fatal("fail-stop scenario never killed an SDIMM")
	}
	for _, par := range []int{2, 4} {
		diffState(t, fmt.Sprintf("failstop parallelism=%d", par), base, run(par))
	}
}

// TestPipelineReadYourWrites checks plain correctness of the batched path:
// later reads in the same Do see earlier writes (waves break on repeats).
func TestPipelineReadYourWrites(t *testing.T) {
	c := newCluster(t, 4)
	p := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
	defer p.Close()
	var ops []BatchOp
	for i := uint64(0); i < 30; i++ {
		ops = append(ops, BatchOp{Addr: i, Write: true, Data: []byte(fmt.Sprintf("v%d", i))})
	}
	for i := uint64(0); i < 30; i++ {
		ops = append(ops, BatchOp{Addr: i})
	}
	res := p.Do(ops)
	for i := uint64(0); i < 30; i++ {
		r := res[30+i]
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		want := fmt.Sprintf("v%d", i)
		if string(r.Data[:len(want)]) != want {
			t.Fatalf("read %d = %q, want %q", i, r.Data[:len(want)], want)
		}
	}
	// Same-wave write→read on one address: the repeat breaks the wave, so
	// the read must observe the committed write.
	res = p.Do([]BatchOp{
		{Addr: 500, Write: true, Data: []byte("fresh")},
		{Addr: 500},
	})
	if res[1].Err != nil || string(res[1].Data[:5]) != "fresh" {
		t.Fatalf("same-batch read-your-write: %q %v", res[1].Data[:5], res[1].Err)
	}
}

// TestPipelineOversizedWriteFails mirrors TestClusterOversizedWrite on the
// batched path.
func TestPipelineOversizedWriteFails(t *testing.T) {
	c := newCluster(t, 2)
	p := c.Pipeline(PipelineOptions{})
	defer p.Close()
	res := p.Do([]BatchOp{{Addr: 1, Write: true, Data: bytes.Repeat([]byte("x"), 65)}})
	if res[0].Err == nil {
		t.Fatal("oversized batched write accepted")
	}
}

// ---------------------------------------------------------------------------
// Split wave equivalence.
// ---------------------------------------------------------------------------

// runSplit executes a deterministic workload on a Split cluster —
// sequentially through Read/Write (window 0) or through Pipeline.Do at the
// given window and parallelism — optionally failing a shard halfway through.
// With rebuild the run is durable and goes on through both users of the
// single rebuild: the failed shard is replaced three quarters of the way in,
// and at the end a corrupt bucket is persisted into a checkpoint, the cluster
// recovered (the scrub repairs it) and driven a little further. The opened
// state directory rides along, so every checkpointed byte — sealed buckets
// included — is part of what the runs must agree on.
func runSplit(t *testing.T, window, par int, parity bool, failShard int, rebuild bool) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts := ClusterOptions{
		Split:     true,
		SDIMMs:    4,
		Levels:    10,
		Key:       []byte("split-equivalence-key"),
		Seed:      13,
		Parity:    parity,
		Telemetry: reg,
	}
	if rebuild {
		opts.Durability = &DurabilityOptions{Dir: t.TempDir(), Interval: 64}
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	var p *Pipeline
	if window > 0 {
		p = c.Pipeline(PipelineOptions{Window: window, Parallelism: par})
	}
	defer func() {
		if p != nil {
			p.Close()
		}
		c.Close()
	}()
	r := rng.Stream(11, "split-workload", 0)
	const n = 240
	ops := make([]BatchOp, n+40)
	for i := range ops {
		ops[i].Addr = r.Uint64n(70)
		if r.Bool(0.5) {
			ops[i].Write, ops[i].Data = true, []byte(fmt.Sprintf("s%04d@%d", i, ops[i].Addr))
		}
	}
	var results []BatchResult
	drive := func(from, to int) {
		if p != nil {
			results = append(results, p.Do(ops[from:to])...)
			return
		}
		for _, op := range ops[from:to] {
			var res BatchResult
			if op.Write {
				res.Err = c.Write(op.Addr, op.Data)
			} else {
				res.Data, res.Err = c.Read(op.Addr)
			}
			results = append(results, res)
		}
	}
	drive(0, n/2)
	if failShard >= 0 {
		c.FailShard(failShard)
	}
	drive(n/2, 3*n/4)
	if rebuild {
		if err := c.ReplaceMember(failShard); err != nil {
			t.Fatalf("ReplaceMember: %v", err)
		}
	}
	drive(3*n/4, n)
	if rebuild {
		if _, ok := c.CorruptBucket(0, 7); !ok {
			t.Fatal("CorruptBucket found no materialized buckets")
		}
		if err := c.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if p != nil {
			p.Close()
		}
		c.Close()
		var report *durable.RecoveryReport
		if c, report, err = RecoverCluster(opts); err != nil {
			t.Fatalf("RecoverCluster: %v", err)
		}
		if report.BucketsRepaired != 1 || report.BucketsUnrecoverable != 0 {
			t.Fatalf("scrub did not repair cleanly: %+v", report)
		}
		if p != nil {
			p = c.Pipeline(PipelineOptions{Window: window, Parallelism: par})
		}
		drive(n, n+40)
		if err := c.ForceCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
	if rebuild {
		st.State = openStateDir(t, opts.Durability.Dir, opts.Key)
	}
	return st
}

// TestSplitParallelismEquivalence: Split waves must evolve bit-identically
// at any parallelism, with and without a parity member, including across a
// mid-run shard loss with XOR reconstruction, a replacement rebuilt from the
// survivors and a scrub repair after recovery. Sequential calls are one-op
// waves, so they must equal Window 1 at every parallelism; a Window 8 wave
// evicts after its last op, so it is compared across parallelisms only.
func TestSplitParallelismEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		parity    bool
		failShard int
		rebuild   bool
	}{
		{"plain", false, -1, false},
		{"parity", true, -1, false},
		{"parity-shard-loss", true, 2, false},
		{"parity-replace-scrub", true, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runSplit(t, 0, 1, tc.parity, tc.failShard, tc.rebuild)
			if len(base.Positions) == 0 {
				t.Fatal("baseline split run touched no addresses")
			}
			if tc.failShard >= 0 {
				recon := base.Telemetry.Counters["cluster.reconstructions"]
				if recon == 0 {
					t.Fatal("shard-loss scenario never reconstructed")
				}
			}
			for _, par := range []int{1, 2, 4, 8} {
				diffState(t, fmt.Sprintf("%s sequential vs window=1 parallelism=%d", tc.name, par),
					base, runSplit(t, 1, par, tc.parity, tc.failShard, tc.rebuild))
			}
			wide := runSplit(t, 8, 1, tc.parity, tc.failShard, tc.rebuild)
			for _, par := range []int{2, 4, 8} {
				diffState(t, fmt.Sprintf("%s window=8 parallelism=%d", tc.name, par),
					wide, runSplit(t, 8, par, tc.parity, tc.failShard, tc.rebuild))
			}
		})
	}
}
