package chaos

import (
	"os"
	"testing"

	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/telemetry"
)

// What the table's rows assert beyond their verdict.

func replayed(t *testing.T, _ Scenario, res Result) {
	if res.Replayed == 0 {
		t.Fatalf("no journal records replayed:\n%s", res)
	}
}

// multiOpWaves checks that the recoveries replayed journals written by
// waves of more than one op.
func multiOpWaves(t *testing.T, sc Scenario, res Result) {
	replayed(t, sc, res)
	for _, w := range sc.Flight.Waves() {
		if w.Ops > 1 {
			return
		}
	}
	t.Fatalf("no wave carried more than one op:\n%s", res)
}

func replayedAndTorn(t *testing.T, sc Scenario, res Result) {
	if replayed(t, sc, res); res.TornTails == 0 {
		t.Fatalf("no torn journal tail observed across %d tears:\n%s", sc.Crashes, res)
	}
}

func migrated(t *testing.T, _ Scenario, res Result) {
	if res.Migrations == 0 {
		t.Fatalf("drain moved no blocks:\n%s", res)
	}
}

func migratedAndReplayed(t *testing.T, sc Scenario, res Result) {
	migrated(t, sc, res)
	replayed(t, sc, res)
	witnessSaw(t, sc, res)
}

// quarantinedEveryFlip: every corrupt point flips one sealed bucket; with no
// cross-SDIMM redundancy the scrub must quarantine each rather than serve it.
func quarantinedEveryFlip(t *testing.T, sc Scenario, res Result) {
	if res.Unrecoverable != sc.Crashes || res.Repaired != 0 {
		t.Fatalf("scrub quarantined %d and repaired %d buckets, want %d and 0:\n%s",
			res.Unrecoverable, res.Repaired, sc.Crashes, res)
	}
}

func repairedEveryFlip(t *testing.T, sc Scenario, res Result) {
	if res.Repaired != sc.Crashes {
		t.Fatalf("parity scrub repaired %d buckets, want %d:\n%s", res.Repaired, sc.Crashes, res)
	}
	if res.Unrecoverable != 0 || res.PoisonedAddrs != 0 || res.PoisonedReads != 0 {
		t.Fatalf("split recovery lost data despite parity:\n%s", res)
	}
}

func shardOneDead(t *testing.T, _ Scenario, res Result) {
	if failed := res.Health.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("health lost track of the dead shard: %v", failed)
	}
}

// splitWitnessed: the Split run's link faults were injected and absorbed on
// every member's link, the parity member's included, under a witness that
// judged every frame.
func splitWitnessed(t *testing.T, sc Scenario, res Result) {
	shardOneDead(t, sc, res)
	witnessSaw(t, sc, res)
	for _, sd := range res.Health.SDIMMs {
		if sd.Retries == 0 {
			t.Fatalf("no retries on %s's link — faults never reached it:\n%s", sd.ID, res)
		}
	}
}

// rehomed: abandoned real APPENDs were re-homed, and the surfaced errors are
// the only red in the verdict.
func rehomed(t *testing.T, sc Scenario, res Result) {
	if res.Snapshot.Counters["cluster.rehomes"] == 0 {
		t.Fatalf("no block re-homed — row needs a harsher config:\n%s", res)
	}
	onlyErrors(t, sc, res)
	witnessSaw(t, sc, res)
}

// onlyErrors: the surfaced errors of an exhausted retry budget are the only
// red in the verdict — no payload lost, no traffic shape bent.
func onlyErrors(t *testing.T, _ Scenario, res Result) {
	clean := res
	clean.Errors = 0
	if res.Mismatches != 0 || !clean.Green() {
		t.Fatalf("run went red beyond its surfaced errors:\n%s", res)
	}
}

// witnessSaw: recovery traffic — retries, ARQ, duplicates, migrations — is
// part of the protocol's observable envelope, which the witness is calibrated
// to admit. Green() already demands its silence; this demands it was watching
// every frame the harness's tap saw, on every member's link.
func witnessSaw(t *testing.T, sc Scenario, res Result) {
	v := sc.Witness.Verdict()
	if v.Frames == 0 || v.Frames != res.frames {
		t.Fatalf("witness judged %d of the %d frames the tap saw — tap not chained, or sized short of the members", v.Frames, res.frames)
	}
	if v.Windows == 0 && !testing.Short() {
		t.Fatal("witness checked no balance windows — window too large for the run")
	}
	if sc.Telemetry != nil {
		// The harness's own checkers ran alongside the chained witness tap.
		if c := sc.Telemetry.Snapshot().Counters; c["witness.frames"] != v.Frames {
			t.Fatalf("witness.frames counter %d != verdict frames %d", c["witness.frames"], v.Frames)
		}
	}
}

// flagsForeignFrame: with the monitor calibrated on real cluster traffic, one
// frame of a length the link never exhibits — a padding bug, a leaky length
// channel — must be flagged immediately.
func flagsForeignFrame(t *testing.T, sc Scenario, _ Result) {
	before := sc.Witness.Verdict()
	sc.Witness.Tap(2, fault.HostToDev, 0, make([]byte, 3))
	after := sc.Witness.Verdict()
	if after.ShapeViolations != before.ShapeViolations+1 || after.OK {
		t.Fatalf("shape-violating frame not flagged: before %+v after %+v", before, after)
	}
}

// flightDumped: the red run left a valid Chrome trace with per-ring
// activity from its last moments.
func flightDumped(t *testing.T, sc Scenario, res Result) {
	if res.Errors == 0 {
		t.Fatal("fault schedule failed to induce errors — row needs a harsher config")
	}
	if res.FlightDump != sc.FlightPath {
		t.Fatalf("FlightDump = %q, want %q", res.FlightDump, sc.FlightPath)
	}
	data, err := os.ReadFile(sc.FlightPath)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	if n, err := telemetry.ValidateTrace(data); err != nil || n == 0 {
		t.Fatalf("dump is not a valid non-empty trace: %d events, %v", n, err)
	}
	// Retries and abandons at this drop rate are guaranteed.
	var linkEvents int
	for i := 0; i < 4; i++ {
		linkEvents += len(sc.Flight.Ring(i).Events())
	}
	if linkEvents == 0 {
		t.Fatal("no link-layer events in the member rings")
	}
}

// flightKeptQuiet: the recorder is always on, but green runs must not leave
// dump artifacts behind.
func flightKeptQuiet(t *testing.T, sc Scenario, res Result) {
	if res.FlightDump != "" {
		t.Fatalf("green run dumped flight data to %q", res.FlightDump)
	}
	if _, err := os.Stat(sc.FlightPath); !os.IsNotExist(err) {
		t.Fatalf("dump file exists after a green run (stat err %v)", err)
	}
}

// splitFlightRecorded: the fail-stopped member's ring holds its transition
// to Failed, and the coordinator's ring the reconstructions around it.
func splitFlightRecorded(t *testing.T, sc Scenario, _ Result) {
	failed := false
	for _, ev := range sc.Flight.Ring(sc.FailShard).Events() {
		failed = failed || ev.Kind == flight.KindHealth && fault.State(ev.B) == fault.Failed
	}
	if !failed {
		t.Fatalf("member %d's ring has no transition to failed: %+v", sc.FailShard, sc.Flight.Ring(sc.FailShard).Events())
	}
	var rebuilt int
	for _, ev := range sc.Flight.Coordinator().Events() {
		if ev.Kind == flight.KindReconstruct && ev.B == uint64(sc.FailShard) {
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("no reconstruct events on the coordinator's ring")
	}
}
