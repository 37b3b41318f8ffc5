package sdimm

import (
	"bytes"
	"runtime"
	"testing"

	"sdimm/internal/blame"
	"sdimm/internal/flight"
	"sdimm/internal/raceflag"
	"sdimm/internal/telemetry"
)

// TestPipelineWavePhaseTiling is the wave record's core contract on the
// real cluster, on both protocols, with the blame collector and the flight
// recorder attached together: at parallelism 4 every pipelined wave's phase
// intervals are contiguous and tile its wall-clock exactly — no
// unattributed gap, no overlap — and the measured all-idle time inside a
// phase never exceeds the phase's own interval; the sequential path's
// one-op waves tile the same way, one record per access, with nothing to
// retire and no checkpoint. The recorder keeps every stamped record and
// the collector's totals are their sums, phase for phase. On a durable cluster the sequential access that makes a
// checkpoint due carries the checkpoint's time in its own record, which still
// tiles exactly. Runs under -race in CI: the coordinator stamps bounds while
// workers update the collector's idle meter.
func TestPipelineWavePhaseTiling(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ClusterOptions
	}{
		{"independent", ClusterOptions{SDIMMs: 4, Levels: 10, Seed: 42}},
		{"split-parity", ClusterOptions{SDIMMs: 4, Levels: 10, Seed: 42, Split: true, Parity: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col, fr := blame.NewCollector(4, 128), flight.New(5, 512)
			tc.opts.Blame, tc.opts.Flight = col, fr
			c, err := NewCluster(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			pipe := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
			defer pipe.Close()

			ops := make([]BatchOp, 32)
			payload := make([]byte, 64)
			for i := range ops {
				ops[i] = BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
			}
			for b := 0; b < 6; b++ {
				for _, r := range pipe.Do(ops) {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			}
			pipelined := len(fr.Waves())
			for i, op := range ops {
				if err := c.Write(op.Addr, payload); err != nil {
					t.Fatal(err)
				}
				if n := len(fr.Waves()); n != pipelined+i+1 {
					t.Fatalf("sequential access %d left %d records, want exactly one more than %d", i, n, pipelined+i)
				}
			}
			checkWaveTiling(t, col, fr, pipelined, len(ops), tc.opts.Split)
		})
	}
	t.Run("independent-durable-sequential", func(t *testing.T) {
		fr := flight.New(4, 128)
		c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 10, Seed: 42, Flight: fr,
			Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 4}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		payload := make([]byte, 64)
		for i := range 16 {
			if err := c.Write(uint64(i), payload); err != nil {
				t.Fatal(err)
			}
			recs := fr.Waves()
			if len(recs) != i+1 {
				t.Fatalf("sequential access %d left %d records, want %d", i, len(recs), i+1)
			}
			rec := recs[i]
			var sum uint64
			for p := flight.Phase(0); p < flight.NumPhases; p++ {
				if rec.Bounds[p+1] < rec.Bounds[p] {
					t.Fatalf("wave %d: bounds not monotone: %v", rec.Index, rec.Bounds)
				}
				sum += rec.PhaseDur(p)
			}
			if sum != rec.Wall() {
				t.Fatalf("wave %d: phase intervals sum to %dns, wall is %dns: %+v", rec.Index, sum, rec.Wall(), rec)
			}
			due := c.Seq()%4 == 0
			if ckpt := rec.PhaseDur(flight.PhaseCheckpoint); rec.Ops != 1 || due != (ckpt > 0) {
				t.Fatalf("access %d (seq %d, checkpoint due %v): %d ops, checkpoint phase %dns: %+v",
					i, c.Seq(), due, rec.Ops, ckpt, rec)
			}
		}
	})
}

// checkWaveTiling holds the records of 7 passes over 32 ops — pipelined
// ones first, then seq one-op waves — to the tiling contract.
func checkWaveTiling(t *testing.T, col *blame.Collector, fr *flight.Recorder, pipelined, seq int, split bool) {
	t.Helper()
	recs := fr.Waves()
	if pipelined == 0 || len(recs) != pipelined+seq {
		t.Fatalf("%d records: %d pipelined, want %d more one-op waves", len(recs), pipelined, seq)
	}
	var totalOps int
	var phaseNS [flight.NumPhases]uint64
	for i, rec := range recs {
		if rec.Index != uint64(i) {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		var sum uint64
		for p := flight.Phase(0); p < flight.NumPhases; p++ {
			sum += rec.PhaseDur(p)
			phaseNS[p] += rec.PhaseDur(p)
			// Boundaries are monotone: no interval may run backwards.
			if rec.Bounds[p+1] < rec.Bounds[p] {
				t.Fatalf("wave %d: bounds not monotone: %v", rec.Index, rec.Bounds)
			}
			// Serialized (all-workers-idle) time within a phase is bounded
			// by the phase interval itself.
			if rec.IdleDur(p) > rec.PhaseDur(p) {
				t.Fatalf("wave %d: %s idle %dns exceeds interval %dns",
					rec.Index, p, rec.IdleDur(p), rec.PhaseDur(p))
			}
		}
		if sum != rec.Wall() {
			t.Fatalf("wave %d: phase intervals sum to %dns, wall is %dns — tiling broken: %+v",
				rec.Index, sum, rec.Wall(), rec)
		}
		if i >= pipelined {
			// Nothing to retire and no checkpoint; the access (access.wait)
			// takes time, and on Independent so do the journal append,
			// broadcast and retirement (dispatch).
			skipped := rec.PhaseDur(flight.PhaseRetireWait) + rec.PhaseDur(flight.PhaseFinalize) + rec.PhaseDur(flight.PhaseCheckpoint)
			if rec.Ops != 1 || skipped != 0 || rec.PhaseDur(flight.PhaseAccessWait) == 0 || !split && rec.PhaseDur(flight.PhaseDispatch) == 0 {
				t.Fatalf("one-op wave %d is not schedule, access.wait, commit, dispatch: %+v", rec.Index, rec)
			}
		}
		totalOps += rec.Ops
	}
	if totalOps != 7*seq {
		t.Fatalf("waves account for %d ops, want %d", totalOps, 7*seq)
	}

	rep := col.Report()
	if rep.AttributionRatio != 1.0 {
		t.Fatalf("AttributionRatio = %v, want exactly 1.0 (contiguous construction)", rep.AttributionRatio)
	}
	if rep.Waves != uint64(len(recs)) || rep.Ops != uint64(totalOps) {
		t.Fatalf("collector folded %d waves of %d ops, recorder holds %d of %d", rep.Waves, rep.Ops, len(recs), totalOps)
	}
	for p, ps := range rep.Phases {
		if ps.TotalNS != phaseNS[p] {
			t.Fatalf("collector folded %s = %dns, recorder's records sum to %dns", ps.Phase, ps.TotalNS, phaseNS[p])
		}
	}
	if len(rep.Ledger) == 0 || rep.TopBottleneck == "" {
		t.Fatalf("empty serialization ledger: %+v", rep)
	}
	if rep.SerializedNS > rep.WallNS {
		t.Fatalf("serialized %dns exceeds wall %dns", rep.SerializedNS, rep.WallNS)
	}
	// The accesses ran somewhere: worker busy time must be nonzero (a Split
	// cluster this small never needs an eviction round, its post-commit
	// work).
	if rep.AccessBusyNS == 0 || !split && rep.AppendBusyNS == 0 {
		t.Fatalf("no worker busy time recorded: access %dns append %dns",
			rep.AccessBusyNS, rep.AppendBusyNS)
	}
}

// TestPipelineBlameRegression is the decoupling regression gate: on a
// multicore host, a parallelism-4 pipeline run must not have any single
// phase contributing 25% or more of wall-clock as all-workers-idle
// (serialized) time. Before the overlapped pipeline, the journal append and
// commit walk alone sat well above this line.
func TestPipelineBlameRegression(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need 4 CPUs for a meaningful serialization share, have %d", runtime.GOMAXPROCS(0))
	}
	col := blame.NewCollector(4, 4096)
	dir := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 12, Seed: 1217, Blame: col,
		Durability: &DurabilityOptions{Dir: dir, Interval: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pipe := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
	defer pipe.Close()

	payload := make([]byte, 64)
	ops := make([]BatchOp, 256)
	for i := range ops {
		ops[i] = BatchOp{Addr: uint64((i * 17) % 1024), Write: i%2 == 0, Data: payload}
	}
	for b := 0; b < 8; b++ {
		for _, r := range pipe.Do(ops) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	rep := col.Report()
	if len(rep.Ledger) == 0 {
		t.Fatal("empty serialization ledger")
	}
	if top := rep.Ledger[0]; top.Share >= 0.25 {
		t.Fatalf("phase %q holds %.1f%% of wall-clock fully serialized (budget <25%%); ledger: %+v",
			top.Phase, 100*top.Share, rep.Ledger)
	}
}

// TestObserversAddNoAllocs is the always-on-observability allocation gate:
// with the flight recorder and blame collector attached, a warm cluster must
// allocate no more than bare over the same accesses — pipelined, twenty
// 64-op Do's; sequential, the same ops twenty times through Read and Write,
// each a one-op wave stamped into the same record. The count is taken whole
// rather than divided down to one access — three allocations per wave would
// vanish in that division — and without testing.AllocsPerRun's integer
// average: the cluster's own count is exact, but the runtime adds zero to
// three allocations to either side's total, and a total that sits on a
// multiple of twenty then rounds to two different averages. Part of `make
// alloc-gates`.
func TestObserversAddNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	const batchLen, runs = 64, 20
	payload := make([]byte, 64)
	ops := make([]BatchOp, batchLen)
	for i := range ops {
		ops[i] = BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
	}
	drivers := map[string]func(t *testing.T, c *Cluster) func(){
		"pipelined": func(t *testing.T, c *Cluster) func() {
			pipe := c.Pipeline(PipelineOptions{Window: 8, Parallelism: 4})
			t.Cleanup(pipe.Close)
			return func() {
				for _, r := range pipe.Do(ops) {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			}
		},
		"sequential": func(t *testing.T, c *Cluster) func() {
			return func() {
				for _, op := range ops {
					err := c.Write(op.Addr, op.Data)
					if !op.Write {
						_, err = c.Read(op.Addr)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			allocs := func(fr *flight.Recorder, col *blame.Collector) int {
				c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 12, Seed: 1, Flight: fr, Blame: col})
				if err != nil {
					t.Fatal(err)
				}
				do := drive(t, c)
				// Warm the stash and the op pool.
				for w := 0; w < 5; w++ {
					do()
				}
				return mallocsOver(runs, do)
			}
			bare := allocs(nil, nil)
			observed := allocs(flight.New(4, 1024), blame.NewCollector(4, 256))
			// Half an allocation per run is above the runtime's jitter and far
			// below the least an observer could add (one per run is +20, one per
			// wave at least +160).
			if observed-bare >= runs/2 {
				t.Fatalf("flight recorder + blame collector add %d allocs over %d runs of %d ops (%d bare, %d observed), want +0",
					observed-bare, runs, batchLen, bare, observed)
			}
		})
	}
}

// TestBlameEquivalence: attaching a blame collector and a flight recorder
// must not change a single access result — the observability layer draws no
// randomness and feeds nothing back.
func TestBlameEquivalence(t *testing.T) {
	run := func(col *blame.Collector, fr *flight.Recorder) []byte {
		c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 10, Seed: 7, Blame: col, Flight: fr})
		if err != nil {
			t.Fatal(err)
		}
		pipe := c.Pipeline(PipelineOptions{Window: 4, Parallelism: 2})
		defer pipe.Close()
		var out []byte
		ops := make([]BatchOp, 16)
		for i := range ops {
			ops[i] = BatchOp{Addr: uint64(i % 24), Write: i%3 == 0, Data: bytes.Repeat([]byte{byte(i)}, 64)}
		}
		for b := 0; b < 4; b++ {
			for _, r := range pipe.Do(ops) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				out = append(out, r.Data...)
			}
		}
		return out
	}
	bare := run(nil, nil)
	instrumented := run(blame.NewCollector(4, 64), flight.New(4, 256))
	if !bytes.Equal(bare, instrumented) {
		t.Fatal("observability instrumentation changed access results")
	}
}

// TestClusterFlightRecords: a sequential (non-pipeline) cluster with a
// recorder attached stamps health transitions and link retries into the
// owning member's ring, and checkpoints into the coordinator's.
func TestClusterFlightRecords(t *testing.T) {
	fr := flight.New(2, 64)
	c, err := NewCluster(ClusterOptions{SDIMMs: 2, Levels: 8, Seed: 1, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := 0; i < 20; i++ {
		if err := c.Write(uint64(i), data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Dump the rings; whatever was recorded must form a valid trace.
	var buf bytes.Buffer
	if err := fr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("cluster flight dump invalid: %v", err)
	}
}
