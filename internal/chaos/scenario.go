// Package chaos is the fault-injection harness for distributed SDIMM
// clusters. One Scenario composes every disturbance the repo models — faulty
// links, a member fail-stop, seeded crashes that tear the journal or corrupt
// a sealed bucket, and an online membership change — over one seeded
// read/write workload, and one Run checks what the recovery layers promise:
//
//  1. Functional correctness — every completed read returns exactly what a
//     reference map says it should, no matter how many frames were dropped,
//     flipped, duplicated, replayed, or stalled along the way, and no matter
//     how often the cluster was killed and restarted from disk.
//  2. Obliviousness under faults — retries never change the observable
//     traffic: every retransmission is byte-identical to the original
//     frame, every error-free access puts the same number of exchanges on
//     the wire (Independent: one ACCESS plus one APPEND per live SDIMM;
//     Split: one ACCESS per live member), and a drain adds no frame shape
//     the link did not carry before it.
//  3. Crash equivalence — a run killed at seeded points of its record stream
//     and recovered from its state directory ends bitwise-equal (results,
//     position map, migration count, payloads) to an uncrashed twin.
//
// Both the `go test` chaos suite and the cmd/sdimm-chaos CLI drive this
// package, so an acceptance run is reproducible from either entry point.
package chaos

import (
	"bytes"
	"cmp"
	"fmt"
	"math"

	"sdimm"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/telemetry"
	"sdimm/internal/witness"
)

// Scenario describes one chaos campaign. Every plan's zero value means
// "none", so the zero Scenario is a fault-free Independent run; plans
// compose freely except where validation names a conflict.
type Scenario struct {
	// SDIMMs and Levels size the cluster (defaults 4 and 10).
	SDIMMs int
	Levels int
	// Accesses is the workload length (default 5000) over a working set of
	// Addresses addresses (default 96).
	Accesses  int
	Addresses uint64
	// Seed drives the workload, the cluster's leaf assignment (xored) and
	// the crash plan's points, tears and corruption targets (default 1).
	Seed uint64

	// Split runs the Split protocol instead of Independent; Parity adds its
	// XOR parity member. Split has no ring-eviction engines.
	Split  bool
	Parity bool
	// RingFlushInterval > 0 gives the members ring-eviction ORAM engines
	// with this deferred-flush interval A instead of Path ORAM. The wire
	// shape is unchanged, so every invariant applies as-is, and the eviction
	// pointer rides the checkpoint, so crash equivalence covers it.
	RingFlushInterval int

	// Faults is the link-fault plan: the injector schedule every link of
	// every incarnation misbehaves on, the parity member's included. Retry
	// is the cluster's recovery budget.
	Faults fault.Config
	Retry  fault.RetryPolicy

	// FailShardAt > 0 fail-stops Split member FailShard (data shards
	// 0..SDIMMs-1, SDIMMs = parity) before that access for good: with Parity
	// every payload must survive, without it the run must fail closed.
	FailShard   int
	FailShardAt int

	// Crashes is the number of seeded restart points, drawn uniquely over
	// the run's whole record stream (workload, migration and topology
	// records), so they land anywhere — mid-wave, inside a migration batch,
	// on a topology record. Each tears the journal mid-record; with Corrupt
	// the run instead stops at the point, flips a ciphertext bit in one
	// member's sealed bucket and checkpoints the damage, so the scrub — not
	// the journal — has to catch it. Without parity the scrub may poison
	// provably-lost addresses (reads fail with ErrUnrecoverable, never wrong
	// bytes). With it, a corrupt point that falls while the topology plan
	// has a member down waits for the rebuild, and a permanent FailShard is
	// rejected: one parity member absorbs one loss, not two.
	Crashes int
	Corrupt bool
	// Interval is the crash plan's checkpoint cadence in committed accesses
	// (default 64), Dir its state directory (default: a temp dir, removed).
	Interval int
	Dir      string

	// Resize is the topology plan: a quarter of the way in, Independent
	// drains Member (4 migration steps per workload access), detaches it,
	// and rejoins the slot three quarters in; Split fail-stops Member and
	// rebuilds it from parity. Member defaults to 1.
	Resize bool
	Member int

	// Parallelism ≤ 1 drives the cluster through the sequential Read / Write
	// / DrainStep calls; above, through the batched pipeline with this many
	// member workers and a wave window of Window (default 8); results must
	// be bit-identical across Parallelism, and at Window 1 equal to the
	// sequential run (an Independent topology plan paces one op per batch).
	Parallelism int
	Window      int

	// Flight rides along on every cluster the run builds (with Split, size
	// it for every member, parity included); a run that is not Green()
	// dumps it to FlightPath, when set.
	Flight     *flight.Recorder
	FlightPath string
	// Telemetry and Witness, like the harness's own link checkers, observe
	// the one run that is never interrupted: the run itself without a crash
	// plan, its uncrashed twin with one (every restart is a fresh process,
	// and replayed exchanges would pollute the balance counts).
	// Result.Snapshot is always the final incarnation's.
	Telemetry *telemetry.Registry
	Witness   *witness.Monitor
}

// prepared fills the defaults and validates the scenario.
func (sc Scenario) prepared() (Scenario, error) {
	sc.SDIMMs = cmp.Or(sc.SDIMMs, 4)
	sc.Levels = cmp.Or(sc.Levels, 10)
	sc.Accesses = cmp.Or(sc.Accesses, 5000)
	sc.Addresses = cmp.Or(sc.Addresses, 96)
	sc.Seed = cmp.Or(sc.Seed, 1)
	if sc.Resize {
		sc.Member = cmp.Or(sc.Member, 1)
	}
	if sc.Crashes > 0 {
		sc.Interval = cmp.Or(sc.Interval, 64)
	}

	// Every rule names the two fields that cannot be combined; nothing a
	// caller sets is silently dropped.
	for _, rule := range []struct {
		bad  bool
		a, b string
	}{
		{sc.Split && sc.RingFlushInterval != 0, "RingFlushInterval", "Split"},
		{!sc.Split && sc.Parity, "Parity", "Split=false"},
		{!sc.Split && (sc.FailShard != 0 || sc.FailShardAt != 0), "FailShard", "Split=false"},
		{sc.FailShard != 0 && sc.FailShardAt == 0, "FailShard", "FailShardAt=0"},
		{sc.Resize && sc.FailShardAt != 0, "FailShardAt", "Resize"},
		{sc.Corrupt && sc.FailShardAt != 0, "FailShardAt", "Corrupt"},
		{sc.Resize && sc.Split && !sc.Parity, "Resize", "Parity=false"},
		{!sc.Resize && sc.Member != 0, "Member", "Resize=false"},
		{sc.Window != 0 && sc.Parallelism <= 1, "Window", "Parallelism<=1"},
		{sc.Crashes == 0 && sc.Corrupt, "Corrupt", "Crashes=0"},
		{sc.Crashes == 0 && sc.Interval != 0, "Interval", "Crashes=0"},
		{sc.Crashes == 0 && sc.Dir != "", "Dir", "Crashes=0"},
		{sc.Flight == nil && sc.FlightPath != "", "FlightPath", "Flight=nil"},
	} {
		if rule.bad {
			return sc, fmt.Errorf("chaos: %s conflicts with %s", rule.a, rule.b)
		}
	}

	switch {
	case sc.Crashes < 0:
		return sc, fmt.Errorf("chaos: %d crash points", sc.Crashes)
	case sc.FailShard < 0 || sc.FailShard >= sc.members() || sc.FailShardAt < 0 || sc.FailShardAt >= sc.Accesses:
		return sc, fmt.Errorf("chaos: fail-stop of member %d at access %d out of range", sc.FailShard, sc.FailShardAt)
	case sc.Resize && (sc.Member < 0 || sc.Member >= sc.SDIMMs):
		return sc, fmt.Errorf("chaos: resize member %d out of range", sc.Member)
	case sc.Resize && (sc.beginAt() <= 0 || sc.joinAt() <= sc.beginAt() || sc.joinAt() >= sc.Accesses):
		return sc, fmt.Errorf("chaos: %d accesses leave no room for the resize schedule", sc.Accesses)
	}
	return sc, nil
}

// members counts the cluster's members, the parity member included.
func (sc Scenario) members() int {
	if sc.Parity {
		return sc.SDIMMs + 1
	}
	return sc.SDIMMs
}

// splitPlan is the Split member that fail-stops, the op it fails before (0:
// never) and the op from which it is rebuilt (math.MaxInt: never).
func (sc Scenario) splitPlan() (member, failAt, joinAt int) {
	if sc.Resize {
		return sc.Member, sc.beginAt(), sc.joinAt()
	}
	return sc.FailShard, sc.FailShardAt, math.MaxInt
}

// beginAt and joinAt fix the topology plan as workload op indices: the
// drain (or fail-stop) happens before op beginAt, the rejoin (or rebuild) no
// earlier than op joinAt. Every incarnation derives its actions from these
// plus the cluster's own recovered state, never from driver memory.
func (sc Scenario) beginAt() int { return sc.Accesses / 4 }
func (sc Scenario) joinAt() int  { return sc.Accesses * 3 / 4 }

// drainQuota is the migration budget once workload op i has committed: 4
// steps per op since the drain began. Purely a function of i, so a restarted
// driver recomputes the same pacing.
func (sc Scenario) drainQuota(i int) uint64 {
	if !sc.Resize || i < sc.beginAt() {
		return 0
	}
	return 4 * uint64(i-sc.beginAt()+1)
}

// poisonAllowed reports whether the scenario may legitimately lose data: a
// corrupted bucket with no parity to rebuild it from is quarantined, and
// reads of its addresses fail closed until a write heals them.
func (sc Scenario) poisonAllowed() bool { return sc.Corrupt && !sc.Parity }

// Result summarizes one run. The run passes iff Green().
type Result struct {
	// Accesses issued; Reads+Writes completed with an observed result.
	Accesses int
	Reads    int
	Writes   int
	// Errors is the number of accesses that surfaced an error (the retry
	// budget was exhausted, or a member was lost without parity headroom);
	// their addresses drop out of verification until the next write.
	Errors int
	// Mismatches counts payloads that differed from the reference map, on a
	// completed read or in the working-set sweep that ends a crash plan —
	// the harness's core failure signal.
	Mismatches int
	// TrafficViolations counts breaches of the obliviousness invariants on
	// the observed run: a retransmitted frame that differed from the
	// original, an error-free batch with an unexpected exchange count, a
	// frame length first seen during the drain, or a draining member that
	// fell silent.
	TrafficViolations int
	// WitnessViolations is the scenario's online monitor's violation total.
	WitnessViolations uint64
	// FaultRate is the configured per-delivery fault probability and
	// FaultStats what the injector actually did.
	FaultRate  float64
	FaultStats fault.Stats
	// Health is the final incarnation's health view and Snapshot its
	// telemetry; both are filled on every exit, including a fatal one.
	Health   sdimm.ClusterHealth
	Snapshot *telemetry.Snapshot
	// FlightDump is where a red run's flight-recorder snapshot was written.
	FlightDump string

	// Crash plan: restart points exercised, recoveries that succeeded, and
	// what those found and did.
	Crashes       int
	Recoveries    int
	Replayed      int // journal records replayed across all recoveries
	TornTails     int // recoveries that found a mid-record tear
	Repaired      int // buckets rebuilt from parity by the scrub
	Unrecoverable int // buckets quarantined with no redundancy left
	PoisonedAddrs int // addresses poisoned by the scrub
	PoisonedReads int // reads refused with ErrUnrecoverable (poisonAllowed only)
	// SkippedResults counts operations whose only observed result was the
	// crash itself (committed in the dying wave); their writes still enter
	// the reference map, so later reads and the final sweep check them.
	SkippedResults int
	// Divergence from the uncrashed twin, and of the final incarnation's
	// access counters from the ops it actually ran.
	ResultMismatches    int
	PositionMismatches  int
	MigrationMismatches int
	TelemetryMismatches int

	// Topology plan: committed migration steps, and whether the slot was
	// repopulated (its incarnation advanced) — which a slot only can be once
	// its drain ran to completion and detached it.
	Migrations int
	Rejoined   bool

	// What the scenario planned, for Green() and String(), and the frames
	// the harness's tap saw on the observed run.
	frames      uint64
	wantCrashes int
	resize      bool
}

// Green is the single verdict: nothing corrupted, leaked, diverged or left
// undone.
func (r Result) Green() bool {
	return r.Errors == 0 && r.Mismatches == 0 &&
		r.TrafficViolations == 0 && r.WitnessViolations == 0 &&
		r.ResultMismatches == 0 && r.PositionMismatches == 0 &&
		r.MigrationMismatches == 0 && r.TelemetryMismatches == 0 &&
		r.Crashes == r.wantCrashes && r.Recoveries == r.wantCrashes &&
		(!r.resize || r.Rejoined)
}

// String renders a one-screen summary.
func (r Result) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "chaos: %d accesses (%d reads, %d writes), %d errors\n",
		r.Accesses, r.Reads, r.Writes, r.Errors)
	fmt.Fprintf(&b, "  payload mismatches:  %d\n", r.Mismatches)
	fmt.Fprintf(&b, "  traffic violations:  %d\n", r.TrafficViolations)
	fmt.Fprintf(&b, "  fault rate %.2f%%: %+v\n", 100*r.FaultRate, r.FaultStats)
	for _, sd := range r.Health.SDIMMs {
		fmt.Fprintf(&b, "  %s: %s, %d/%d ok, retries=%d arq=%d resyncs=%d\n",
			sd.ID, sd.State, sd.Successes, sd.Successes+sd.Failures, sd.Retries, sd.Retransmits, sd.Resyncs)
	}
	if r.wantCrashes > 0 {
		fmt.Fprintf(&b, "  crash: %d/%d restart points, %d recoveries, %d records replayed, %d torn tails\n",
			r.Crashes, r.wantCrashes, r.Recoveries, r.Replayed, r.TornTails)
		fmt.Fprintf(&b, "  scrub: repaired: %d, unrecoverable: %d, poisoned addrs: %d, poisoned reads: %d\n",
			r.Repaired, r.Unrecoverable, r.PoisonedAddrs, r.PoisonedReads)
	}
	if r.wantCrashes > 0 || r.TelemetryMismatches > 0 {
		fmt.Fprintf(&b, "  twin diff: results=%d positions=%d migrations=%d, telemetry=%d (crash-wave results skipped: %d)\n",
			r.ResultMismatches, r.PositionMismatches, r.MigrationMismatches, r.TelemetryMismatches, r.SkippedResults)
	}
	if r.resize {
		fmt.Fprintf(&b, "  resize: %d migrations, rejoined: %v\n", r.Migrations, r.Rejoined)
	}
	return b.String()
}
