package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"sdimm"
	"sdimm/internal/blame"
	"sdimm/internal/durable"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	"sdimm/internal/seccomm"
)

// hotPathReport is the BENCH_hotpath.json schema: one entry per layer of
// the steady-state access loop, with the allocation gates that CI enforces.
// The layers mirror BenchmarkAccessHotPath in the root package; this runner
// exists so CI and operators get a machine-readable report (and optional
// pprof profiles) without the go test harness.
type hotPathReport struct {
	NumCPU       int            `json:"num_cpu"`
	GoMaxProcs   int            `json:"gomaxprocs"`
	Layers       []hotPathLayer `json:"layers"`
	Flight       flightOverhead `json:"flight_overhead"`
	GatesPassed  bool           `json:"gates_passed"`
	CPUProfile   string         `json:"cpu_profile,omitempty"`
	HeapProfile  string         `json:"heap_profile,omitempty"`
	ElapsedTotal float64        `json:"elapsed_total_sec"`
}

// flightOverhead is the always-on-observability tax: the same pipeline
// workload with the flight recorder and blame collector attached must stay
// within 3% of the bare run (min-of-3 each, wall-clock gate enforced only
// on multi-core hosts) and must add zero allocations per op (enforced
// everywhere — allocation counts are deterministic).
type flightOverhead struct {
	BaseNsPerOp   float64 `json:"base_ns_per_op"`
	FlightNsPerOp float64 `json:"flight_ns_per_op"`
	Ratio         float64 `json:"ratio"`
	AddedAllocs   int64   `json:"added_allocs_per_op"`
	GateEnforced  bool    `json:"wallclock_gate_enforced"`
}

type hotPathLayer struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MaxAllocs   int64   `json:"max_allocs_gate"`
	Ops         int     `json:"ops"`
}

// hotSealOpen benchmarks one sealed host→device frame round trip with
// caller-supplied buffers. Gate: 0 allocs/op.
func hotSealOpen(b *testing.B) {
	dev, err := seccomm.NewDevice("hotpath-0", nil)
	if err != nil {
		b.Fatal(err)
	}
	auth := seccomm.NewAuthority()
	auth.Register(dev)
	host, devSess, err := seccomm.Handshake(nil, dev, auth)
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 90)
	sealBuf := make([]byte, 0, len(pt)+seccomm.MACSize)
	openBuf := make([]byte, 0, len(pt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := host.SealAppend(sealBuf[:0], pt)
		if _, err := devSess.OpenAppend(openBuf[:0], frame); err != nil {
			b.Fatal(err)
		}
	}
}

// hotEngineAccess benchmarks one full accessORAM on a warmed functional
// engine. Gate: 0 allocs/op in steady state.
func hotEngineAccess(b *testing.B) {
	store, err := oram.NewMemStore(4, 64, []byte("hotpath-key"))
	if err != nil {
		b.Fatal(err)
	}
	e, err := oram.NewEngine(store, oram.NewSparsePosMap(), oram.Options{
		Geometry:       oram.MustGeometry(12),
		StashCapacity:  200,
		EvictThreshold: 150,
		Rand:           rng.New(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	const addrs = 64
	for i := 0; i < 8*addrs; i++ {
		if _, _, err := e.Access(uint64(i%addrs), oram.OpWrite, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := oram.OpRead
		if i%2 == 0 {
			op = oram.OpWrite
		}
		if _, _, err := e.Access(uint64(i%addrs), op, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// hotJournalAppend benchmarks committing one journal record, fsync off.
// Gate: 0 allocs/op.
func hotJournalAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "sdimm-hotpath-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fp := durable.Fingerprint{Kind: "independent", Members: 4, Levels: 12, BlockSize: 64, Z: 4, Seed: 1}
	m, err := durable.Open(dir, []byte("hotpath-key"), fp, 64, false)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if err := m.WriteCheckpoint(&durable.Checkpoint{Seq: 0}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	var batch [1]durable.Record
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch[0] = durable.Record{Seq: seq, Addr: seq % 32, Kind: durable.KindWrite, Data: payload}
		if err := m.Append(batch[:]); err != nil {
			b.Fatal(err)
		}
		seq++
	}
}

// hotClusterAccess benchmarks one sequential cluster access end to end.
// Gate: its recorded 12 allocs/op — the cluster path hands response payloads
// to the caller, so a small bounded count is by design, but it must not grow.
func hotClusterAccess(b *testing.B) {
	c, err := sdimm.NewCluster(sdimm.ClusterOptions{SDIMMs: 4, Levels: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	const addrs = 64
	for i := 0; i < 2*addrs; i++ {
		if err := c.Write(uint64(i%addrs), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i % addrs)
		if i%2 == 0 {
			if err := c.Write(a, payload); err != nil {
				b.Fatal(err)
			}
		} else if _, err := c.Read(a); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPipelineAccess benchmarks one batched-pipeline access (64-op batches
// through a window-8 pipeline at 4 workers), optionally with the flight
// recorder and blame collector attached — the overhead-gate workload. Each
// b.N unit is one access.
func hotPipelineAccess(fr *flight.Recorder, col *blame.Collector) func(*testing.B) {
	return func(b *testing.B) {
		c, err := sdimm.NewCluster(sdimm.ClusterOptions{SDIMMs: 4, Levels: 12, Seed: 1, Flight: fr, Blame: col})
		if err != nil {
			b.Fatal(err)
		}
		pipe := c.Pipeline(sdimm.PipelineOptions{Window: 8, Parallelism: 4})
		defer pipe.Close()
		const batchLen = 64
		payload := make([]byte, 64)
		ops := make([]sdimm.BatchOp, batchLen)
		for i := range ops {
			ops[i] = sdimm.BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
		}
		// Warm the stash, the op pool, and (when attached) the collector's
		// wave free-list, so the measured loop is steady state.
		for w := 0; w < 4; w++ {
			for _, r := range pipe.Do(ops) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batchLen {
			for _, r := range pipe.Do(ops) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}
}

// measureFlightOverhead runs the pipeline workload bare and instrumented
// (min ns/op of three runs each, interleaved so thermal/scheduler drift
// hits both sides) and fills the report's flight section.
func measureFlightOverhead() flightOverhead {
	minNs := func(rs []testing.BenchmarkResult) float64 {
		m := float64(rs[0].NsPerOp())
		for _, r := range rs[1:] {
			if ns := float64(r.NsPerOp()); ns < m {
				m = ns
			}
		}
		return m
	}
	var off, on []testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		off = append(off, testing.Benchmark(hotPipelineAccess(nil, nil)))
		on = append(on, testing.Benchmark(hotPipelineAccess(flight.New(4, 1024), blame.NewCollector(4, 256))))
	}
	ov := flightOverhead{
		BaseNsPerOp:   minNs(off),
		FlightNsPerOp: minNs(on),
		AddedAllocs:   on[0].AllocsPerOp() - off[0].AllocsPerOp(),
		GateEnforced:  runtime.NumCPU() >= 4,
	}
	ov.Ratio = ov.FlightNsPerOp / ov.BaseNsPerOp
	return ov
}

// runHotPath measures every layer of the access hot path, writes the report
// to outPath atomically, optionally captures CPU and heap profiles around
// the measured loops, and enforces the allocation gates.
func runHotPath(outPath, cpuProfile, heapProfile string) error {
	rep := hotPathReport{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fmt.Errorf("hotpath: create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("hotpath: start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
		rep.CPUProfile = cpuProfile
	}

	layers := []struct {
		name      string
		bench     func(*testing.B)
		maxAllocs int64
	}{
		{"seccomm-seal-open", hotSealOpen, 0},
		{"engine-access", hotEngineAccess, 0},
		{"journal-append", hotJournalAppend, 0},
		{"cluster-access", hotClusterAccess, 12},
	}
	start := time.Now()
	rep.GatesPassed = true
	for _, l := range layers {
		res := testing.Benchmark(l.bench)
		layer := hotPathLayer{
			Name:        l.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			MaxAllocs:   l.maxAllocs,
			Ops:         res.N,
		}
		rep.Layers = append(rep.Layers, layer)
		gate := "ok"
		if layer.AllocsPerOp > l.maxAllocs {
			rep.GatesPassed = false
			gate = fmt.Sprintf("FAIL (> %d)", l.maxAllocs)
		}
		fmt.Fprintf(os.Stderr, "hotpath: %-18s %10.0f ns/op %6d B/op %4d allocs/op  gate=%s\n",
			l.name, layer.NsPerOp, layer.BytesPerOp, layer.AllocsPerOp, gate)
	}
	// Flight-recorder overhead gate: the instrumented pipeline must add no
	// allocations (always enforced) and stay within 3% wall-clock on hosts
	// with enough cores for the comparison to mean anything.
	rep.Flight = measureFlightOverhead()
	fmt.Fprintf(os.Stderr, "hotpath: flight overhead %.0f -> %.0f ns/op (%.3fx), +%d allocs/op (wallclock gate %v)\n",
		rep.Flight.BaseNsPerOp, rep.Flight.FlightNsPerOp, rep.Flight.Ratio,
		rep.Flight.AddedAllocs, rep.Flight.GateEnforced)
	if rep.Flight.AddedAllocs > 0 {
		rep.GatesPassed = false
		fmt.Fprintf(os.Stderr, "hotpath: FAIL flight recorder added %d allocs/op (gate: 0)\n", rep.Flight.AddedAllocs)
	}
	if rep.Flight.GateEnforced && rep.Flight.Ratio > 1.03 {
		rep.GatesPassed = false
		fmt.Fprintf(os.Stderr, "hotpath: FAIL flight recorder overhead %.1f%% (gate: 3%%)\n", 100*(rep.Flight.Ratio-1))
	}
	rep.ElapsedTotal = time.Since(start).Seconds()

	if heapProfile != "" {
		f, err := os.Create(heapProfile)
		if err != nil {
			return fmt.Errorf("hotpath: create heap profile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("hotpath: write heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		rep.HeapProfile = heapProfile
	}

	if err := writeJSONAtomic(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hotpath: wrote %s\n", outPath)
	if !rep.GatesPassed {
		return fmt.Errorf("hotpath: allocation gate failed (see %s)", outPath)
	}
	return nil
}
