package experiments

import (
	"reflect"
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/sim"
	"sdimm/internal/telemetry"
)

// TestCampaignParallelEquivalence is the determinism-equivalence suite for
// the campaign runner: for every backend, a Parallel: 4 campaign must
// reproduce the Parallel: 1 campaign bit-for-bit from the same seed — every
// sim.Result field including the protocol.miss_latency histogram and stash
// peaks, and the merged telemetry registry (counters, gauges,
// histograms). Cluster-level state (final position map, per-buffer stash
// contents) is pinned by the pipeline equivalence tests in the root package;
// this test pins the experiment layer above it.
func TestCampaignParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	backends := []struct {
		p        config.Protocol
		channels int
	}{
		{config.NonSecure, 1},
		{config.Freecursive, 1},
		{config.Independent, 1},
		{config.Split, 1},
		{config.IndepSplit, 2}, // needs ≥4 SDIMMs, i.e. two channels
		{config.Ring, 1},
	}
	for _, b := range backends {
		b := b
		t.Run(b.p.String(), func(t *testing.T) {
			run := func(parallel int) (map[string]sim.Result, telemetry.Snapshot) {
				o := Options{
					Warmup:   60,
					Measure:  160,
					Levels:   20,
					Seed:     1,
					Parallel: parallel,
					// Workloads defaulted: all 10 profiles.
					Telemetry: telemetry.NewRegistry(),
				}
				res, err := Campaign(o, []config.Protocol{b.p}, b.channels)
				if err != nil {
					t.Fatal(err)
				}
				snap := o.Telemetry.Snapshot()
				return res, snap
			}
			seqRes, seqSnap := run(1)
			parRes, parSnap := run(4)

			if len(seqRes) != 10 {
				t.Fatalf("campaign returned %d results, want one per workload (10)", len(seqRes))
			}
			if len(parRes) != len(seqRes) {
				t.Fatalf("parallel campaign returned %d results, sequential %d", len(parRes), len(seqRes))
			}
			for k, want := range seqRes {
				got, ok := parRes[k]
				if !ok {
					t.Errorf("%s: missing from parallel campaign", k)
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: parallel result diverged from sequential\nseq: %+v\npar: %+v", k, want, got)
				}
			}
			if !reflect.DeepEqual(seqSnap, parSnap) {
				t.Errorf("merged telemetry diverged between Parallel 1 and 4")
				diffSnapshots(t, seqSnap, parSnap)
			}
		})
	}
}

// diffSnapshots narrows a snapshot mismatch to the offending section so a
// failure names the metric, not just "not equal".
func diffSnapshots(t *testing.T, a, b telemetry.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		for k, v := range a.Counters {
			if b.Counters[k] != v {
				t.Errorf("counter %s: %d vs %d", k, v, b.Counters[k])
			}
		}
		for k := range b.Counters {
			if _, ok := a.Counters[k]; !ok {
				t.Errorf("counter %s only in parallel run", k)
			}
		}
	}
	if !reflect.DeepEqual(a.Gauges, b.Gauges) {
		t.Errorf("gauges diverged: %v vs %v", a.Gauges, b.Gauges)
	}
	if !reflect.DeepEqual(a.Histograms, b.Histograms) {
		for k, v := range a.Histograms {
			if !reflect.DeepEqual(b.Histograms[k], v) {
				t.Errorf("histogram %s diverged", k)
			}
		}
	}
}

// TestCampaignErrorDeterminism pins that a failing campaign reports the same
// (first-in-job-order) error regardless of Parallel.
func TestCampaignErrorDeterminism(t *testing.T) {
	run := func(parallel int) string {
		o := Options{
			Warmup:    10,
			Measure:   20,
			Levels:    22,
			Seed:      1,
			Parallel:  parallel,
			Workloads: []string{"milc", "no-such-workload", "also-missing"},
		}
		_, err := Campaign(o, []config.Protocol{config.NonSecure}, 1)
		if err == nil {
			t.Fatal("campaign over unknown workloads succeeded")
		}
		return err.Error()
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Errorf("error nondeterministic across Parallel: %q vs %q", seq, par)
	}
}

// TestCampaignMergesEveryBackendTelemetry pins that runs of all six backends
// merge into one registry: the merged miss-latency count is the sum of the
// runs' own counts, and the merged sim.llc_misses is the sum of the runs'
// LLC misses.
func TestCampaignMergesEveryBackendTelemetry(t *testing.T) {
	o := Options{Warmup: 20, Measure: 40, Levels: 16, Seed: 1, Parallel: 2,
		Workloads: []string{"milc"}, Telemetry: telemetry.NewRegistry()}
	res, err := Campaign(o, []config.Protocol{config.NonSecure, config.Freecursive,
		config.Independent, config.Split, config.IndepSplit, config.Ring}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("campaign returned %d results, want 6", len(res))
	}
	var want, misses uint64
	for _, r := range res {
		want += r.Backend.MissLatency.N()
		misses += r.LLCMisses
	}
	snap := o.Telemetry.Snapshot()
	h, ok := snap.Histograms["protocol.miss_latency"]
	if !ok {
		t.Fatal("protocol.miss_latency not merged")
	}
	if h.N != want || want == 0 {
		t.Fatalf("merged protocol.miss_latency count %d, runs sum to %d", h.N, want)
	}
	if got := snap.Counters["sim.llc_misses"]; got != misses {
		t.Fatalf("merged sim.llc_misses %d, runs sum to %d", got, misses)
	}
}
