package main

import (
	"fmt"
	"time"

	"sdimm"
	"sdimm/internal/blame"
)

// This file is the `-exp blame` diagnostic: it drives the batched cluster
// pipeline with the wave-level blame profiler attached and prints, for each
// worker count, the per-phase breakdown plus the serialization ledger — the
// coordinator-side phases (schedule, retire.wait, finalize, access.wait,
// commit, dispatch, checkpoint) ranked by the wall-clock they spend with
// every worker measurably idle. The ledger's top entry names the phase to
// attack before adding workers can possibly help (Amdahl). It gates nothing
// and writes no file: the profiler's contract (exact tiling, non-empty
// ledger) is TestPipelineWavePhaseTiling, and the phase durations and total
// serialized share are pipeline.* in benchmark/.

// blameRun drives BenchmarkClusterAccess's workload (8 SDIMMs, 64-op
// batches through a window-8 pipeline) for 30 batches with a collector
// attached, and returns accesses per second and the collector's report.
func blameRun(parallelism int) (float64, blame.Report, error) {
	const (
		batches  = 30
		batchLen = 64
	)
	col := blame.NewCollector(8, 1024)
	c, err := sdimm.NewCluster(sdimm.ClusterOptions{SDIMMs: 8, Levels: 12, Seed: 1, Blame: col})
	if err != nil {
		return 0, blame.Report{}, err
	}
	pipe := c.Pipeline(sdimm.PipelineOptions{Window: 8, Parallelism: parallelism})
	defer pipe.Close()
	ops := make([]sdimm.BatchOp, batchLen)
	payload := make([]byte, 64)
	for i := range ops {
		ops[i] = sdimm.BatchOp{Addr: uint64(i), Write: i%2 == 0, Data: payload}
	}
	start := time.Now()
	for b := 0; b < batches; b++ {
		for _, r := range pipe.Do(ops) {
			if r.Err != nil {
				return 0, blame.Report{}, r.Err
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(batches*batchLen) / elapsed, col.Report(), nil
}

// runBlame prints the profile at 1 and 4 workers.
func runBlame() error {
	for _, par := range []int{1, 4} {
		rate, r, err := blameRun(par)
		if err != nil {
			return fmt.Errorf("blame (parallelism %d): %w", par, err)
		}
		fmt.Printf("parallelism=%d: %.0f accesses/s, %d waves, attribution %.4f, serialized %.1f%% (max speedup %.2fx), top bottleneck %s\n",
			par, rate, r.Waves, r.AttributionRatio, 100*r.SerializedShare, r.MaxSpeedup, r.TopBottleneck)
		fmt.Printf("  wall %.1fms, worker busy: access %.1fms, append %.1fms\n",
			float64(r.WallNS)/1e6, float64(r.AccessBusyNS)/1e6, float64(r.AppendBusyNS)/1e6)
		for _, p := range r.Phases {
			fmt.Printf("  phase  %-12s %8.1fµs/wave (%.1f%% of wall)\n", p.Phase, p.MeanNSWave/1e3, 100*p.Share)
		}
		for _, e := range r.Ledger {
			fmt.Printf("  ledger %-12s %8.1fµs all-idle (%.1f%% of wall)\n",
				e.Phase, float64(e.SerializedNS)/1e3, 100*e.Share)
		}
	}
	return nil
}
