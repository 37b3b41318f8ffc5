package chaos

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
	"sdimm/internal/witness"
)

// leg is one row of the scenario table: a Scenario literal, the verdict it
// must reach, and whatever else the row is there to prove.
type leg struct {
	// name is the path of the test that runs the row: one of the one-line
	// Test functions further down (most names predate the table and stay
	// addressable with -run), or a subtest of one.
	name string
	sc   Scenario
	// golden names a testdata file that the summary plus the cluster.* and
	// fault.* snapshot counters must equal byte for byte (full size only).
	golden string
	red    bool // the scenario is built to fail; Green() must be false
	check  func(t *testing.T, sc Scenario, res Result)
}

// size scales an access count down for -short.
func size(full int) int {
	if testing.Short() {
		return full / 4
	}
	return full
}

// cli completes a scenario the way cmd/sdimm-chaos maps its flag defaults:
// seed 42, the 1.7% fault mix, an 8-attempt retry budget, and a witness
// sharing the run's registry, sized for every member, parity included.
func cli(sc Scenario) Scenario { return cliAt(sc, 0.017, 8) }

// cliAt is cli at sdimm-chaos's -rate r and -attempts n.
func cliAt(sc Scenario, r float64, n int) Scenario {
	sc.Seed = 42
	sc.Faults = fault.Config{Seed: 42 ^ 0xfa417, BitFlip: r * 0.30, Drop: r * 0.25,
		Duplicate: r * 0.15, Replay: r * 0.10, Stall: r * 0.12, MACCorrupt: r * 0.08}
	sc.Retry = fault.RetryPolicy{MaxAttempts: n, Sleep: func(time.Duration) {}}
	sc.Telemetry = telemetry.NewRegistry()
	members := 4
	if sc.Parity {
		members++
	}
	sc.Witness = witness.New(witness.Options{Members: members, Registry: sc.Telemetry})
	return sc
}

// sweepFaults is a gentler mix than the CLI's, with no MAC-key windows.
var sweepFaults = fault.Config{Seed: 5, Drop: 0.01, BitFlip: 0.01, Duplicate: 0.005, Replay: 0.005, Stall: 0.005}

// legs builds the table afresh (rows own observers, which are single-use).
// The first eleven rows are the acceptance legs at CLI scale; their goldens
// were captured from the CLI before the four harnesses became one, and pin
// the link-fault campaign bit for bit.
func legs(t *testing.T) []leg {
	rows := []leg{
		{name: "TestWitnessSilentOnChaosSweep", golden: "linkfault-leg1.golden", check: witnessSaw,
			sc: cli(Scenario{Accesses: size(5000)})},
		{name: "TestWitnessSilentOnRingChaosSweep", golden: "linkfault-leg2.golden", check: witnessSaw,
			sc: cli(Scenario{Accesses: size(3000), RingFlushInterval: 4})},
		{name: "TestScenarioLegs/split-failshard", golden: "linkfault-leg3.golden", check: splitWitnessed,
			sc: cli(Scenario{Accesses: size(2000), Split: true, Parity: true, FailShard: 1, FailShardAt: size(2000) / 3})},
		// Checkpoint cadence 64 with uniform crash points makes replay work
		// all but certain; a zero means the journal path went untested.
		{name: "TestCrashRecoveryEquivalenceSequential", check: replayedAndTorn,
			sc: cli(Scenario{Accesses: size(1200), Crashes: 4, Interval: 64})},
		{name: "TestCrashRecoveryEquivalenceParallel", check: replayed,
			sc: cli(Scenario{Accesses: size(1200), Crashes: 4, Parallelism: 4})},
		// Tears land mid-wave with ring flushes pending.
		{name: "TestCrashRecoveryEquivalenceRingParallel",
			sc: cli(Scenario{Accesses: size(1200), Crashes: 4, Parallelism: 4, RingFlushInterval: 4})},
		{name: "TestCrashRecoveryCorruptIndependent", check: quarantinedEveryFlip,
			sc: cli(Scenario{Accesses: size(800), Crashes: 3, Corrupt: true})},
		{name: "TestCrashRecoveryCorruptSplitRepairsFromParity", check: repairedEveryFlip,
			sc: cli(Scenario{Accesses: size(800), Crashes: 3, Corrupt: true, Split: true, Parity: true})},
		// Migration batches ride the ordinary access shape, so even a full
		// rebalance with seeded crashes must keep the witness silent.
		{name: "TestResizeEquivalenceSequential", check: migratedAndReplayed,
			sc: cli(Scenario{Accesses: size(600), Crashes: 3, Interval: 48, Resize: true})},
		{name: "TestResizeEquivalenceParallel", check: migrated,
			sc: cli(Scenario{Accesses: size(600), Crashes: 3, Interval: 48, Resize: true, Parallelism: 4})},
		{name: "TestResizeEquivalenceSplit",
			sc: cli(Scenario{Accesses: size(600), Crashes: 3, Interval: 48, Resize: true, Split: true, Parity: true})},

		// A recovery that failed to restore the ring's eviction pointer or
		// pending countdown would evict different buckets after the restart.
		{name: "TestCrashRecoveryEquivalenceRing", check: replayed,
			sc: Scenario{Levels: 8, Accesses: size(600), Crashes: 3, Seed: 11, Interval: 48, RingFlushInterval: 4}},
		{name: "TestCrashRecoveryEquivalenceSplit",
			sc: Scenario{Levels: 8, Accesses: size(600), Crashes: 3, Seed: 11, Interval: 48, Split: true, Parity: true}},
		{name: "TestWitnessSilentOnResizeSweep", check: witnessSaw,
			sc: Scenario{Levels: 8, Accesses: 400, Seed: 9, Crashes: 2, Resize: true,
				Witness: witness.New(witness.Options{Members: 4, Window: 512})}},
		{name: "TestWitnessFlagsShapeViolatingLink", check: flagsForeignFrame,
			sc: Scenario{Accesses: 300, Seed: 3, Witness: witness.New(witness.Options{Members: 4})}},
		// A drop rate the retry budget cannot absorb: the run must go red
		// and the recorder must dump its rings.
		{name: "TestFlightDumpOnInducedFailure", red: true, check: flightDumped,
			sc: Scenario{Accesses: 200, Seed: 21, Faults: fault.Config{Seed: 13, Drop: 0.5},
				Retry: fault.RetryPolicy{MaxAttempts: 1}, Flight: flight.New(4, 256), FlightPath: t.TempDir() + "/flight.json"}},
		// A 2-attempt retry budget at a 5% fault mix abandons real APPENDs:
		// both engine homes must re-home the blocks in flight. The exhausted
		// budget also surfaces errors, so the verdict is red; rehomed checks
		// that nothing else is.
		{name: "TestScenarioLegs/rehome-sequential", red: true, check: rehomed,
			sc: cliAt(Scenario{Accesses: 1200}, 0.05, 2)},
		{name: "TestScenarioLegs/rehome-parallel", red: true, check: rehomed,
			sc: cliAt(Scenario{Accesses: 1200, Parallelism: 4}, 0.05, 2)},
		{name: "TestFlightNoDumpOnGreenRun", check: flightKeptQuiet,
			sc: Scenario{Accesses: 200, Seed: 2, Flight: flight.New(4, 256), FlightPath: t.TempDir() + "/flight.json"}},
		{name: "TestFlightNoDumpOnGreenRun/split", check: flightKeptQuiet,
			sc: Scenario{Accesses: 200, Seed: 2, Split: true, Parity: true, Flight: flight.New(5, 256), FlightPath: t.TempDir() + "/flight.json"}},
		// Split records on the recorder too: the fail-stop on the member's
		// ring, every parity reconstruction on the coordinator's.
		{name: "TestScenarioLegs/split-flight", check: splitFlightRecorded,
			sc: Scenario{Accesses: 300, Seed: 4, Split: true, Parity: true, FailShard: 2, FailShardAt: 100, Flight: flight.New(5, 256)}},
		// Split on the wave driver: parity × crash × resize through
		// Pipeline.Do at Parallelism 4 and Window 8. The waves carry up to 8
		// ops, so the tears land inside multi-op journal groups; every
		// completed read, the twin's results and position map and the final
		// sweep must match, though recovery replays one op per wave: members
		// evict inside their own access, so the state never depends on the
		// wave grouping. The first is sdimm-chaos -split -parallel 4 -batch 8
		// -crash -resize -n 600 -crashes 3.
		{name: "TestScenarioLegs/split-parallel-resize-crash", check: replayed,
			sc: cli(Scenario{Accesses: size(600), Crashes: 3, Resize: true, Split: true, Parity: true, Parallelism: 4, Window: 8})},
		{name: "TestScenarioLegs/split-parallel-crash", check: multiOpWaves,
			sc: Scenario{Levels: 8, Accesses: size(600), Crashes: 3, Seed: 11, Interval: 48, Split: true, Parity: true, Parallelism: 4, Window: 8,
				Flight: flight.New(5, 4096)}},
		{name: "TestScenarioLegs/split-parallel-corrupt", check: repairedEveryFlip,
			sc: cli(Scenario{Accesses: size(800), Crashes: 3, Corrupt: true, Split: true, Parity: true, Parallelism: 4, Window: 8})},
		// At Window 1 every wave is one op, which is what replay runs.
		{name: "TestScenarioLegs/split-window1-resize-crash", check: replayed,
			sc: Scenario{Levels: 8, Accesses: size(600), Crashes: 3, Seed: 5, Interval: 48, Resize: true, Split: true, Parity: true, Parallelism: 4, Window: 1}},
		// A tree this small for 230 addresses keeps the stash past the
		// eviction threshold, so every member evicts inside most accesses
		// and recovery replays multi-op waves one op at a time. The witness
		// sees one ACCESS frame per member per op, eviction or not.
		{name: "TestScenarioLegs/split-parallel-evict", check: witnessSaw,
			sc: Scenario{Levels: 4, Addresses: 230, Accesses: 700, Seed: 11, Split: true, Parity: true, Parallelism: 4, Window: 8,
				Witness: witness.New(witness.Options{Members: 5, Window: 512})}},
		{name: "TestScenarioLegs/split-parallel-evict-crash", check: evictWitnessed,
			sc: Scenario{Levels: 4, Addresses: 230, Accesses: 1100, Seed: 11, Crashes: 3, Interval: 48, Split: true, Parity: true, Parallelism: 4, Window: 8,
				Flight: flight.New(5, 4096), Witness: witness.New(witness.Options{Members: 5, Window: 512})}},
	}
	// A 2-attempt budget at a 10% fault mix abandons exchanges the device
	// already ran: an executed APPEND is delivered, an executed ACCESS
	// commits, and a block lost inside a response poisons its address. The
	// exhausted budget surfaces errors; a wrong payload is never allowed.
	for seed := uint64(1); seed <= 8; seed++ {
		for _, par := range []int{1, 4} {
			sc := cliAt(Scenario{Accesses: size(1200), Parallelism: par}, 0.1, 2)
			sc.Seed, sc.Faults.Seed = seed, seed^0xfa417
			rows = append(rows, leg{name: fmt.Sprintf("TestScenarioLegs/payload-loss-seed%d-parallel%d", seed, par),
				red: true, check: onlyErrors, sc: sc})
		}
	}
	// Different seeds shift the crash points to different record offsets —
	// including inside migration batches and around the topology records.
	for _, seed := range []uint64{2, 3, 5, 8} {
		rows = append(rows, leg{name: "TestResizeEquivalenceSeedSweep/",
			sc: Scenario{Levels: 8, Accesses: size(600), Crashes: 3, Seed: seed, Interval: 48, Resize: true}})
	}
	return rows
}

// run executes the row and asserts the verdict — which, when Green(), says
// every planned restart fired and recovered — then the row's own checks.
func (l leg) run(t *testing.T) {
	t.Helper()
	res, err := Run(l.sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Green() == l.red {
		t.Fatalf("Green() = %v, want %v:\n%s", res.Green(), !l.red, res)
	}
	if l.golden != "" && !testing.Short() {
		want, err := os.ReadFile("testdata/" + l.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		fmt.Fprint(&got, res, "telemetry:\n")
		res.Snapshot.WriteText(&got, "cluster.", "fault.")
		if got.String() != string(want) {
			t.Fatalf("summary and counters moved off %s:\n%s", l.golden, got.String())
		}
	}
	if l.check != nil {
		l.check(t, l.sc, res)
	}
}

// runLeg runs the rows whose name is, or sits under, the calling test's.
func runLeg(t *testing.T) {
	for _, l := range legs(t) {
		if sub, ok := strings.CutPrefix(l.name, t.Name()); ok && sub == "" {
			l.run(t)
		} else if ok && sub[0] == '/' {
			t.Run(sub[1:], func(t *testing.T) { l.run(t) })
		}
	}
}

func TestScenarioLegs(t *testing.T)                               { runLeg(t) }
func TestWitnessSilentOnChaosSweep(t *testing.T)                  { runLeg(t) }
func TestWitnessSilentOnRingChaosSweep(t *testing.T)              { runLeg(t) }
func TestWitnessSilentOnResizeSweep(t *testing.T)                 { runLeg(t) }
func TestWitnessFlagsShapeViolatingLink(t *testing.T)             { runLeg(t) }
func TestFlightDumpOnInducedFailure(t *testing.T)                 { runLeg(t) }
func TestFlightNoDumpOnGreenRun(t *testing.T)                     { runLeg(t) }
func TestCrashRecoveryEquivalenceSequential(t *testing.T)         { runLeg(t) }
func TestCrashRecoveryEquivalenceParallel(t *testing.T)           { runLeg(t) }
func TestCrashRecoveryEquivalenceRing(t *testing.T)               { runLeg(t) }
func TestCrashRecoveryEquivalenceRingParallel(t *testing.T)       { runLeg(t) }
func TestCrashRecoveryEquivalenceSplit(t *testing.T)              { runLeg(t) }
func TestCrashRecoveryCorruptIndependent(t *testing.T)            { runLeg(t) }
func TestCrashRecoveryCorruptSplitRepairsFromParity(t *testing.T) { runLeg(t) }
func TestResizeEquivalenceSequential(t *testing.T)                { runLeg(t) }
func TestResizeEquivalenceParallel(t *testing.T)                  { runLeg(t) }
func TestResizeEquivalenceSplit(t *testing.T)                     { runLeg(t) }

func TestResizeEquivalenceSeedSweep(t *testing.T) { runLeg(t) }

// TestScenarioValidation: a combination the harness cannot honour is an
// error naming both fields, never a silently dropped setting, and a crash
// plan larger than the record stream is refused rather than drawn forever.
func TestScenarioValidation(t *testing.T) {
	wit := witness.New(witness.Options{Members: 4})
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Split: true, RingFlushInterval: 4}, "RingFlushInterval conflicts with Split"},
		{Scenario{Parity: true}, "Parity conflicts with Split=false"},
		{Scenario{FailShard: 1, FailShardAt: 50}, "FailShard conflicts with Split=false"},
		{Scenario{Split: true, FailShard: 1}, "FailShard conflicts with FailShardAt=0"},
		{Scenario{Split: true, Parity: true, Resize: true, FailShardAt: 50}, "FailShardAt conflicts with Resize"},
		{Scenario{Split: true, Parity: true, Crashes: 1, Corrupt: true, FailShardAt: 50}, "FailShardAt conflicts with Corrupt"},
		{Scenario{Split: true, Resize: true}, "Resize conflicts with Parity=false"},
		{Scenario{Member: 2}, "Member conflicts with Resize=false"},
		{Scenario{Window: 8}, "Window conflicts with Parallelism<=1"},
		{Scenario{Corrupt: true}, "Corrupt conflicts with Crashes=0"},
		{Scenario{Interval: 32}, "Interval conflicts with Crashes=0"},
		{Scenario{Dir: "x"}, "Dir conflicts with Crashes=0"},
		{Scenario{FlightPath: "x"}, "FlightPath conflicts with Flight=nil"},
		{Scenario{Resize: true, Member: 4}, "resize member 4 out of range"},
		{Scenario{Resize: true, Accesses: 3}, "leave no room for the resize schedule"},
		{Scenario{Split: true, FailShard: 5, FailShardAt: 50}, "fail-stop of member 5 at access 50 out of range"},
		{Scenario{Accesses: 200, Crashes: 5000}, "5000 crash points need more than 200 records"},
		{Scenario{Accesses: 200, Crashes: 5000, Resize: true}, "5000 crash points need more than"},
	} {
		if _, err := Run(tc.sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v:\n got error %v, want one containing %q", tc.sc, err, tc.want)
		}
	}
	// Split members sit behind the same sealed links as Independent ones, so
	// a link plan and the witness apply to them as they are.
	for _, sc := range []Scenario{{Split: true, Faults: fault.Config{Drop: 0.01}},
		{Split: true, Retry: fault.RetryPolicy{MaxAttempts: 3}}, {Split: true, Witness: wit}} {
		if _, err := sc.prepared(); err != nil {
			t.Errorf("%+v: %v", sc, err)
		}
	}
}

// TestScenarioSample draws scenarios over the cross-product the hand-written
// rows cannot enumerate — flavour, parity, backend, parallelism, crash plan,
// topology plan, link faults — skips the draws validation rejects, and
// requires every accepted one Green() with a silent witness. The first two
// are forced: neither combination ran anywhere before the harness composed.
func TestScenarioSample(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	forced := []Scenario{
		{Crashes: 2, Resize: true, RingFlushInterval: 4, Parallelism: 4},
		{Crashes: 2, Corrupt: true, Resize: true, Split: true, Parity: true},
	}
	ran := 0
	for i := 0; i < n; i++ {
		r := rng.Stream(20240613, "chaos.sample", i)
		var sc Scenario
		if i < len(forced) {
			sc = forced[i]
		} else {
			// Losses only where parity can absorb them (without it the run
			// must fail closed).
			if sc.Split = r.Bool(0.4); sc.Split {
				sc.Parity = r.Bool(0.8)
			} else {
				sc.RingFlushInterval = 4 * r.Intn(2)
			}
			if r.Bool(0.5) {
				sc.Faults = sweepFaults
			}
			sc.Parallelism = 1 + 3*r.Intn(2)
			sc.Crashes, sc.Resize = r.Intn(3), r.Bool(0.5)
			sc.Corrupt = r.Bool(0.3) && (!sc.Split || sc.Parity)
			if sc.Parity && r.Bool(0.3) {
				sc.FailShard, sc.FailShardAt = r.Intn(5), 1+r.Intn(200)
			}
		}
		sc.Levels, sc.Accesses, sc.Seed = 8, 240, 1+r.Uint64n(1<<20)
		if sc.Crashes > 0 {
			sc.Interval = 32
		}
		p, err := sc.prepared()
		if err != nil {
			if i < len(forced) {
				t.Fatalf("forced sample %d rejected: %v", i, err)
			}
			continue
		}
		literal := fmt.Sprintf("%#v", sc)
		sc.Retry.Sleep = func(time.Duration) {}
		sc.Witness = witness.New(witness.Options{Members: p.members(), Window: 512})
		res, err := Run(sc)
		if err != nil || !res.Green() {
			t.Errorf("sample %d red (err %v):\n%sreproduce with the row %s", i, err, res, literal)
		}
		ran++
	}
	if ran < n/2 {
		t.Fatalf("only %d of %d draws were runnable — the draw is mostly generating conflicts", ran, n)
	}
}
