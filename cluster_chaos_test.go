package sdimm_test

import (
	"reflect"
	"testing"
	"time"

	"sdimm/internal/chaos"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
)

// chaosFaults is the acceptance schedule: ~1.7% of deliveries fault (the
// issue requires ≥1% per-message), spread across every fault class the
// injector models.
var chaosFaults = fault.Config{
	Seed:       1234,
	BitFlip:    0.005,
	Drop:       0.004,
	Duplicate:  0.003,
	Replay:     0.002,
	Stall:      0.002,
	MACCorrupt: 0.001,
}

// acceptance is the scenario every Independent test below varies: seed 42
// over links faulting on chaosFaults' schedule, with a retry budget that
// never sleeps. The harness's link checkers ride along on every such run.
func acceptance(accesses int) chaos.Scenario {
	if testing.Short() {
		accesses = 600
	}
	return chaos.Scenario{
		SDIMMs:    4,
		Levels:    10,
		Accesses:  accesses,
		Addresses: 96,
		Seed:      42,
		Faults:    chaosFaults,
		Retry:     fault.RetryPolicy{MaxAttempts: 8, Sleep: func(time.Duration) {}},
	}
}

// splitLoss is the Split member-loss scenario: shard 1 dies a third of the
// way through a randomized workload.
func splitLoss(accesses int, parity bool) chaos.Scenario {
	return chaos.Scenario{
		SDIMMs:      4,
		Levels:      10,
		Accesses:    accesses,
		Addresses:   64,
		Seed:        7,
		Split:       true,
		Parity:      parity,
		FailShard:   1,
		FailShardAt: accesses / 3,
	}
}

// TestChaosClusterUnderRandomFaults is the acceptance run: thousands of
// accesses over links faulting on >1% of deliveries, with zero payload
// mismatches against a reference map, zero surfaced errors, and zero
// breaches of the traffic-pattern invariant (retries byte-identical,
// constant exchange count per error-free access).
func TestChaosClusterUnderRandomFaults(t *testing.T) {
	res, err := chaos.Run(acceptance(6000))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultRate < 0.01 {
		t.Fatalf("fault rate %.4f below the 1%% acceptance floor", res.FaultRate)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d payload mismatches under chaos:\n%s", res.Mismatches, res)
	}
	if res.TrafficViolations != 0 {
		t.Fatalf("%d traffic-pattern violations — retries leaked:\n%s", res.TrafficViolations, res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d accesses exhausted the retry budget at a %.1f%% fault rate:\n%s",
			res.Errors, 100*res.FaultRate, res)
	}
	s := res.FaultStats
	if s.Drops == 0 || s.BitFlips == 0 || s.Duplicates == 0 || s.Replays == 0 || s.Stalls == 0 || s.MACCorruptions == 0 {
		t.Fatalf("some fault class never fired — the run proved nothing: %+v", s)
	}
	t.Logf("\n%s", res)
}

// TestChaosRingClusterUnderRandomFaults re-runs the acceptance campaign on
// a ring-eviction cluster (deferred-flush interval 4): the >1% fault
// schedule, zero-mismatch, zero-violation bar is identical, and the
// parallel leg must match the sequential leg's payload accounting exactly —
// the ring engines' extra state (eviction pointer, invalid-slot masks) must
// not open any divergence under retries.
func TestChaosRingClusterUnderRandomFaults(t *testing.T) {
	base := acceptance(3000)
	base.RingFlushInterval = 4
	seq, err := chaos.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if seq.FaultRate < 0.01 {
		t.Fatalf("fault rate %.4f below the 1%% acceptance floor", seq.FaultRate)
	}
	if seq.Mismatches != 0 || seq.TrafficViolations != 0 || seq.Errors != 0 {
		t.Fatalf("ring cluster went red under chaos:\n%s", seq)
	}
	par := base
	par.Parallelism, par.Window = 4, 8
	pres, err := chaos.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Mismatches != 0 || pres.TrafficViolations != 0 || pres.Errors != 0 {
		t.Fatalf("parallel ring cluster went red under chaos:\n%s", pres)
	}
	if seq.Reads != pres.Reads || seq.Writes != pres.Writes {
		t.Fatalf("ring parallel accounting diverged: seq %d/%d vs par %d/%d",
			seq.Reads, seq.Writes, pres.Reads, pres.Writes)
	}
	t.Logf("\n%s", seq)
}

// TestChaosClusterUnderRandomFaultsParallel re-runs the acceptance scenario
// through the batched access pipeline with four concurrent SDIMM workers:
// zero mismatches, zero traffic-invariant violations (whole-run exchange
// accounting), and the telemetry fault counters must agree exactly with the
// harness's own accounting.
func TestChaosClusterUnderRandomFaultsParallel(t *testing.T) {
	sc := acceptance(6000)
	sc.Parallelism, sc.Window = 4, 8
	res, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d payload mismatches under parallel chaos:\n%s", res.Mismatches, res)
	}
	if res.TrafficViolations != 0 {
		t.Fatalf("%d traffic-pattern violations — retries leaked:\n%s", res.TrafficViolations, res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d accesses exhausted the retry budget:\n%s", res.Errors, res)
	}
	s := res.FaultStats
	if s.Drops == 0 || s.BitFlips == 0 || s.Duplicates == 0 || s.Replays == 0 || s.Stalls == 0 {
		t.Fatalf("some fault class never fired — the run proved nothing: %+v", s)
	}

	reconcileCounters(t, res)
	t.Logf("\n%s", res)
}

// reconcileCounters checks that every cluster.* and fault.* counter of a
// link-fault campaign agrees exactly with the harness's own accounting
// (Result, FaultStats, and the per-SDIMM health view).
func reconcileCounters(t *testing.T, res chaos.Result) {
	t.Helper()
	c := res.Snapshot.Counters
	eq := func(checks map[string]uint64, against string) {
		t.Helper()
		for name, want := range checks {
			if got := c[name]; got != want {
				t.Fatalf("%s = %d, %s says %d", name, got, against, want)
			}
		}
	}

	// The cluster counts attempts; the harness counts completions. They
	// differ by exactly the errored accesses.
	eq(map[string]uint64{
		"cluster.accesses": uint64(res.Accesses),
		"cluster.errors":   uint64(res.Errors),
	}, "the harness tally")
	reads, writes := c["cluster.reads"], c["cluster.writes"]
	if reads+writes != uint64(res.Accesses) || reads < uint64(res.Reads) || writes < uint64(res.Writes) ||
		(reads-uint64(res.Reads))+(writes-uint64(res.Writes)) != uint64(res.Errors) {
		t.Fatalf("attempt/completion gap != errors: r=%d/%d w=%d/%d errors=%d",
			reads, res.Reads, writes, res.Writes, res.Errors)
	}

	fs := res.FaultStats
	eq(map[string]uint64{
		"fault.injected.deliveries":      fs.Deliveries,
		"fault.injected.bitflips":        fs.BitFlips,
		"fault.injected.mac_corruptions": fs.MACCorruptions,
		"fault.injected.drops":           fs.Drops,
		"fault.injected.duplicates":      fs.Duplicates,
		"fault.injected.replays":         fs.Replays,
		"fault.injected.stalls":          fs.Stalls,
		"fault.injected.failstops":       fs.FailStopped,
	}, "the injector")
	if fs.Deliveries == 0 || fs.Drops+fs.BitFlips+fs.Duplicates == 0 {
		t.Fatal("fault schedule injected nothing — run exercised no recovery")
	}

	var retries, retransmits, resyncs, abandoned uint64
	for _, sd := range res.Health.SDIMMs {
		retries += sd.Retries
		retransmits += sd.Retransmits
		resyncs += sd.Resyncs
		abandoned += sd.Abandoned
	}
	eq(map[string]uint64{
		"fault.retries":     retries,
		"fault.retransmits": retransmits,
		"fault.resyncs":     resyncs,
		"fault.abandoned":   abandoned,
	}, "the health view")
	if retries == 0 {
		t.Fatal("no retries at this fault rate — schedule too gentle")
	}

	// Re-homing counters reconcile: every re-homed block took at least one
	// candidate attempt, a failure is only declared after attempts were
	// spent, and attempts never appear without a rehome being driven.
	rehomes, rehomeFails, attempts := c["cluster.rehomes"], c["cluster.rehome_failures"], c["cluster.rehome_attempts"]
	if rehomes < rehomeFails || attempts < rehomes-rehomeFails || rehomes == 0 && attempts != 0 {
		t.Fatalf("rehomes %d, failures %d, attempts %d do not reconcile", rehomes, rehomeFails, attempts)
	}
	// Lost appends reconcile against the recovery layer: every driven
	// rehome started from a lost real append, every lost append rode an
	// abandoned exchange, and abandonment is the only way to lose one.
	if lost := c["cluster.appends_lost"]; rehomes > lost || lost > abandoned {
		t.Fatalf("rehomes %d, appends lost %d, abandoned %d do not reconcile", rehomes, lost, abandoned)
	}

	// A plain fault campaign drives no drains, no checkpoints, no recovery,
	// and no scrub, so every one of those counters must sit at exactly zero
	// — a nonzero value here means a steady-state code path is crediting
	// maintenance machinery that never ran.
	eq(map[string]uint64{
		"cluster.migrations":          0,
		"cluster.checkpoints":         0,
		"cluster.recovery.replayed":   0,
		"cluster.scrub.scanned":       0,
		"cluster.scrub.repaired":      0,
		"cluster.scrub.unrecoverable": 0,
		"cluster.poisoned_reads":      0,
		"cluster.reconstructions":     0,
	}, "a plain campaign")
	if c["seccomm.seals"] == 0 || c["seccomm.opens"] == 0 {
		t.Fatal("seccomm counters not wired")
	}
}

// TestTelemetryCountersMatchResult runs the sequential acceptance campaign
// with a flight recorder attached: the counters reconcile as they do under
// the pipeline, and the recorder saw exactly one one-op wave per access.
func TestTelemetryCountersMatchResult(t *testing.T) {
	sc := acceptance(1500)
	sc.Seed, sc.Flight = 7, flight.New(4, 1024)
	res, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Fatalf("payload mismatches: %d", res.Mismatches)
	}
	reconcileCounters(t, res)
	// The ring keeps the last 256 records; each wave's index counts the
	// ones before it.
	waves := sc.Flight.Waves()
	if len(waves) == 0 || waves[len(waves)-1].Index+1 != uint64(res.Accesses) {
		t.Fatalf("flight recorder saw %d waves (last %+v), accesses = %d", len(waves), waves[len(waves)-1:], res.Accesses)
	}
	for _, w := range waves {
		if w.Ops != 1 {
			t.Fatalf("sequential wave %d ran %d ops", w.Index, w.Ops)
		}
	}
}

// TestChaosDeterminismAcrossParallelism pins the harness-level determinism
// claims: (a) a Window: 1 parallel run degenerates to exactly the sequential
// execution, so the entire Result matches the sequential driver's; (b) two
// batched runs that differ only in Parallelism are identical to each other.
func TestChaosDeterminismAcrossParallelism(t *testing.T) {
	run := func(parallelism, window int) chaos.Result {
		sc := acceptance(900)
		sc.Parallelism, sc.Window = parallelism, window
		res, err := chaos.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		res.Snapshot = nil // it carries wall-clock histograms
		return res
	}
	seq := run(0, 0)
	if got := run(4, 1); !reflect.DeepEqual(seq, got) {
		t.Errorf("window-1 parallel run diverged from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, got)
	}
	b2 := run(2, 8)
	if b4 := run(4, 8); !reflect.DeepEqual(b2, b4) {
		t.Errorf("parallelism 2 vs 4 diverged at window 8:\n--- p2 ---\n%s--- p4 ---\n%s", b2, b4)
	}
}

// TestChaosSplitParityFailStopParallel re-runs the Split member-loss
// campaign through the pipeline's per-member workers, one access per wave;
// the result must be identical to the inline run.
func TestChaosSplitParityFailStopParallel(t *testing.T) {
	accesses := 1800
	if testing.Short() {
		accesses = 300
	}
	sc := splitLoss(accesses, true)
	inline, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallelism, sc.Window = 4, 1
	par, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	inline.Snapshot, par.Snapshot = nil, nil // they carry wall-clock histograms
	if par.Mismatches != 0 || par.Errors != 0 {
		t.Fatalf("parallel split chaos: %d mismatches, %d errors:\n%s", par.Mismatches, par.Errors, par)
	}
	if !reflect.DeepEqual(inline, par) {
		t.Errorf("split fan-out diverged from inline run:\n--- inline ---\n%s--- parallel ---\n%s", inline, par)
	}
}

// TestChaosSplitParityFailStop kills one Split data shard a third of the
// way through a randomized workload; parity reconstruction must keep every
// payload byte-exact with no errors.
func TestChaosSplitParityFailStop(t *testing.T) {
	accesses := 1800
	if testing.Short() {
		accesses = 300
	}
	res, err := chaos.Run(splitLoss(accesses, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 || res.Errors != 0 {
		t.Fatalf("split chaos: %d mismatches, %d errors:\n%s", res.Mismatches, res.Errors, res)
	}
	failed := res.Health.Failed()
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("health lost track of the dead shard: %v", failed)
	}
	t.Logf("\n%s", res)
}

// TestChaosSplitWithoutParityLosesShard documents the contrapositive: the
// same campaign without a parity member must fail closed at the member
// loss, not serve corrupted data.
func TestChaosSplitWithoutParityLosesShard(t *testing.T) {
	sc := splitLoss(200, false)
	sc.Addresses, sc.FailShardAt = 32, 50
	res, err := chaos.Run(sc)
	if err == nil {
		t.Fatalf("run survived a shard loss without parity:\n%s", res)
	}
	if res.Mismatches != 0 {
		t.Fatalf("served %d corrupted payloads before failing", res.Mismatches)
	}
	// The fatal exit keeps its evidence: the health view shows the dead
	// shard and the snapshot's error count is the harness's own.
	if failed := res.Health.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("fatal exit lost the health view: %v", failed)
	}
	if res.Snapshot == nil {
		t.Fatal("fatal exit returned no telemetry snapshot")
	}
	if got := res.Snapshot.Counters["cluster.errors"]; res.Errors == 0 || got != uint64(res.Errors) {
		t.Fatalf("cluster.errors = %d, harness counted %d", got, res.Errors)
	}
}
