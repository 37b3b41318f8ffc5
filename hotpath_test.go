// Hot-path benchmarks for the steady-state access loop. Each sub-benchmark
// isolates one layer of the stack — seccomm framing, the ORAM engine, the
// journal commit, the full cluster access — and reports allocs/op so a
// regression in any layer's memory discipline is visible at a glance. The
// hard 0-alloc gates live next to each layer (seccomm, fault, oram, durable)
// and the cluster's and pipeline's budgets at the end of this file;
// all run in `make ci` as `make alloc-gates`. `make profile` takes CPU and
// heap profiles of the cluster access at the gating benchmark's shape.
package sdimm

import (
	"runtime"
	"testing"

	"sdimm/internal/durable"
	"sdimm/internal/oram"
	"sdimm/internal/raceflag"
	"sdimm/internal/rng"
	"sdimm/internal/seccomm"
)

func BenchmarkAccessHotPath(b *testing.B) {
	b.Run("seccomm-seal-open", benchSealOpen)
	b.Run("engine-access", benchEngineAccess)
	b.Run("journal-append", benchJournalAppend)
	b.Run("cluster-access", benchClusterAccess)
	b.Run("cluster-access-l16", benchClusterAccessL16)
}

// benchSealOpen measures one authenticated frame round trip (host seals,
// device opens: one AES-GCM call each) with caller-supplied buffers — the per-message cost of every
// host↔buffer exchange. Steady state is 0 allocs/op.
func benchSealOpen(b *testing.B) {
	dev, err := seccomm.NewDevice("bench-0", nil)
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

// benchEngineAccess measures one full accessORAM (path read, remap,
// writeback, background eviction) on a functional engine. Steady state is
// 0 allocs/op.
func benchEngineAccess(b *testing.B) {
	store, err := oram.NewMemStore(4, 64, []byte("bench-key"))
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
	for i := 0; i < 4*addrs; i++ { // warm the scratch and free list
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

// benchJournalAppend measures committing one access record: encode, extend
// the hash chain, write to the journal (fsync off). Steady state is
// 0 allocs/op.
func benchJournalAppend(b *testing.B) {
	fp := durable.Fingerprint{Kind: "independent", Members: 4, Levels: 12, BlockSize: 64, Z: 4, Seed: 1}
	m, err := durable.Open(b.TempDir(), []byte("bench-key"), fp, 64, false)
	if err != nil {
		b.Fatal(err)
	}
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

// benchClusterAccess measures one sequential cluster access end to end:
// frontend position lookup, sealed command exchange, device-side engine
// access, sealed response, eviction appends. The cluster path tolerates a
// small, bounded allocation count (response payloads are handed to the
// caller), held by TestClusterAccessAllocBudget; the per-layer gates above
// keep the inner loops at zero.
func benchClusterAccess(b *testing.B) {
	access := warmClusterAccess(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}

// benchClusterAccessL16 is benchClusterAccess at the gating benchmark's
// common shape: 4 SDIMMs, Levels 16, 4096 prefilled addresses drawn
// uniformly, half of the accesses writes. Its trees and sealed buckets
// (about 20 MB) do not fit in a cache, so the DRAM misses of a path read
// show here; the 64-address loop above stays cache-resident and hides them.
// The alloc gates stay on that loop.
func benchClusterAccessL16(b *testing.B) {
	const space = 4096
	c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	for a := uint64(0); a < space; a++ {
		if err := c.Write(a, payload); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := r.Uint64n(space)
		if i%2 == 0 {
			err = c.Write(a, payload)
		} else {
			_, err = c.Read(a)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// warmCluster builds the hot-path cluster over n SDIMMs and warms its
// stashes, free lists and link scratch over addresses 0…63.
func warmCluster(tb testing.TB, n int) *Cluster {
	c, err := NewCluster(ClusterOptions{SDIMMs: n, Levels: 12, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < 2*64; i++ {
		if err := c.Write(uint64(i%64), payload); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// warmClusterAccess returns the steady-state loop body over a warm cluster:
// access i alternates a write and a read over the warmed addresses.
func warmClusterAccess(tb testing.TB) func(i int) {
	c := warmCluster(tb, 4)
	payload := make([]byte, 64)
	return func(i int) {
		a := uint64(i % 64)
		if i%2 == 0 {
			if err := c.Write(a, payload); err != nil {
				tb.Fatal(err)
			}
		} else if _, err := c.Read(a); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestClusterAccessAllocBudget holds the sequential cluster access at 0.6
// objects an access, counted exactly over a warm write/read alternation: on
// a read, the payload handed to the caller. The response decodes as a view
// into cluster scratch, the position map is a plain map, the link allocates
// nothing (TestExchangeZeroAlloc in internal/fault), and a secure buffer
// reuses its drain plans and the transfer queue's payload buffers (the real
// APPEND's copy once cost about one object an access). The count is bounded
// by design, and it must not grow. Part of `make alloc-gates`.
func TestClusterAccessAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	const runs, budget = 1000, 0.6
	access := warmClusterAccess(t)
	i := 0
	perAccess := float64(mallocsOver(runs, func() {
		access(i)
		i++
	})) / runs
	t.Logf("%.3f objects per access", perAccess)
	if perAccess > budget {
		t.Fatalf("Cluster.Read/Write allocates %.3f objects per access in steady state, budget %.1f", perAccess, budget)
	}
}

// mallocsOver counts the objects runs calls of f allocate, the way
// testing.AllocsPerRun does (one P, Mallocs before and after) but whole:
// its integer average hides up to an allocation a call.
func mallocsOver(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}

// TestPipelineDoAllocBudget holds a warm 64-op Pipeline.Do (Window 8, 8
// SDIMMs, half reads) at 40 objects, inline and with workers. What is left
// is Do's own result slice and feeder closures, and per read the payload
// handed to the caller; the response decodes as a view into the op's pooled
// copy, and a secure buffer reuses its transfer queue's payload buffers. A
// hand-off allocates nothing: a wave's shares are bound once per pooled
// waveState. (With a closure pair per ACCESS op, a closure per APPEND member
// and a goroutine per journal batch the same Do allocated 426; with a fresh
// copy per real APPEND, 111.) Part of `make alloc-gates`.
func TestPipelineDoAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	const batchLen, runs, budget = 64, 20, 40
	for _, parallelism := range []int{1, 4} {
		pipe := warmCluster(t, 8).Pipeline(PipelineOptions{Window: 8, Parallelism: parallelism})
		defer pipe.Close()
		payload := make([]byte, 64)
		ops := make([]BatchOp, batchLen)
		for i := range ops {
			ops[i] = BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
		}
		do := func() {
			for _, r := range pipe.Do(ops) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
		for w := 0; w < 5; w++ { // warm the op and wave pools
			do()
		}
		perDo := float64(mallocsOver(runs, do)) / runs
		t.Logf("Parallelism %d: %.1f objects per Do", parallelism, perDo)
		if perDo > budget {
			t.Errorf("Parallelism %d: a warm %d-op Do allocates %.1f objects, budget %d", parallelism, batchLen, perDo, budget)
		}
	}
}
