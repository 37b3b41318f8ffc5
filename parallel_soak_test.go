package sdimm

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// The pipeline soak is the long-run randomized stress wall around the
// decoupled engine: randomized window sizes, mixed read/write/migrate
// streams, seeded transient faults and fail-stops, all compared bitwise
// against a parallelism-1 run of the identical schedule. Three tiers:
//
//	go test -short          a couple of scenarios (CI smoke, in `make ci`)
//	go test                 the default handful (also under `make race`)
//	go test -soak.long      the full sweep (`make soak`)
var soakLong = flag.Bool("soak.long", false, "run the full-size pipeline soak sweep")

// soakWorkload builds a deterministic mixed op stream: ~10% migration steps
// (read-shaped rebalance ops, as NextMigrations batches would produce), an
// even read/write split for the rest, and forced address repeats so waves
// break mid-stream.
func soakWorkload(r *rng.Source, n int, space uint64) []BatchOp {
	ops := make([]BatchOp, n)
	for i := range ops {
		addr := r.Uint64n(space)
		if i > 0 && r.Bool(0.2) {
			addr = ops[i-1].Addr // forced repeat: wave must break here
		}
		op := BatchOp{Addr: addr}
		switch {
		case r.Bool(0.1):
			op.Migrate = true
		case r.Bool(0.5):
			op.Write = true
			op.Data = []byte(fmt.Sprintf("soak%06d@%d", i, addr))
		}
		ops[i] = op
	}
	return ops
}

// soakScenario is one randomized pipeline configuration under test.
type soakScenario struct {
	seed     uint64
	window   int
	batches  int
	faulty   bool
	failStop int // member to fail-stop before the middle batch; -1 none
	ring     int // ring-eviction flush interval A; 0 = Path ORAM engines
}

func (sc soakScenario) String() string {
	return fmt.Sprintf("window=%d batches=%d faulty=%v failstop=%d ring=%d",
		sc.window, sc.batches, sc.faulty, sc.failStop, sc.ring)
}

// runSoak executes ops through a fresh cluster + pipeline at the given
// parallelism and captures the full state fingerprint.
func runSoak(t *testing.T, sc soakScenario, ops []BatchOp, par int) engineState {
	t.Helper()
	reg := telemetry.NewRegistry()
	var inj *fault.Injector
	if sc.faulty || sc.failStop >= 0 {
		cfg := fault.Config{Seed: sc.seed ^ 0xfa017}
		if sc.faulty {
			cfg.BitFlip, cfg.Drop, cfg.Duplicate, cfg.Stall = 0.01, 0.01, 0.01, 0.005
		}
		inj = fault.NewInjector(cfg)
	}
	c, err := NewCluster(ClusterOptions{
		SDIMMs:            4,
		Levels:            10,
		RingFlushInterval: sc.ring,
		Key:               []byte("soak-key"),
		Seed:              sc.seed,
		Faults:            inj,
		Retry:             fault.RetryPolicy{MaxAttempts: 4, Sleep: nop},
		Telemetry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline(PipelineOptions{Window: sc.window, Parallelism: par})
	defer p.Close()

	var results []BatchResult
	per := (len(ops) + sc.batches - 1) / sc.batches
	for b := 0; b < sc.batches; b++ {
		lo := b * per
		hi := min(lo+per, len(ops))
		if lo >= hi {
			break
		}
		if sc.failStop >= 0 && b == sc.batches/2 {
			inj.FailStop(sc.failStop)
		}
		results = append(results, p.Do(ops[lo:hi])...)
	}
	return captureState(results, c.Positions(), c.StashLens(), reg, c.Health())
}

// TestPipelineSoak sweeps randomized scenarios — window size, batch split,
// fault profile, fail-stop member — and demands bitwise equivalence between
// parallelism 1 and parallelism 2/4/8 on every one: results, error strings,
// final position map, stash occupancy, telemetry, and health accounting.
// Run under -race in CI; the equivalence check doubles as the memory-model
// audit of the overlapped pipeline.
func TestPipelineSoak(t *testing.T) {
	scenarios, opsPer, space := 4, 240, uint64(64)
	switch {
	case *soakLong:
		scenarios, opsPer, space = 16, 1000, 96
	case testing.Short():
		scenarios, opsPer = 2, 120
	}
	for s := 0; s < scenarios; s++ {
		s := s
		t.Run(fmt.Sprintf("scenario-%02d", s), func(t *testing.T) {
			r := rng.Stream(1789, "pipeline-soak", s)
			sc := soakScenario{
				seed:     r.Uint64n(1 << 62),
				window:   1 + int(r.Uint64n(12)),
				batches:  2 + int(r.Uint64n(3)),
				faulty:   r.Bool(0.5),
				failStop: -1,
			}
			if r.Bool(0.33) {
				sc.failStop = int(r.Uint64n(4))
			}
			ops := soakWorkload(r, opsPer, space)

			base := runSoak(t, sc, ops, 1)
			if len(base.Positions) == 0 {
				t.Fatalf("%v: baseline run touched no addresses", sc)
			}
			for _, par := range []int{2, 4, 8} {
				got := runSoak(t, sc, ops, par)
				diffState(t, fmt.Sprintf("%v parallelism=%d", sc, par), base, got)
			}
		})
	}
}

// TestPipelineSoakSplit is TestPipelineSoak's Split twin: a Split cluster
// with a parity member, every member's link faulting on the transient mix —
// bit flips, drops and duplicates at 1% of deliveries each, stalls at 0.5% —
// must end bitwise-equal across Parallelism 1, 2, 4 and 8 in results, error
// strings, positions, stashes, telemetry, health and the injector's counts,
// and those counts must show faults on every member's link, the parity
// member's included. The stream's migration steps run as reads: a Split
// cluster has no routing to migrate.
func TestPipelineSoakSplit(t *testing.T) {
	scenarios, opsPer, space := 4, 240, uint64(64)
	switch {
	case *soakLong:
		scenarios, opsPer, space = 16, 1000, 96
	case testing.Short():
		scenarios, opsPer = 2, 120
	}
	for s := 0; s < scenarios; s++ {
		t.Run(fmt.Sprintf("scenario-%02d", s), func(t *testing.T) {
			r := rng.Stream(1789, "pipeline-soak-split", s)
			seed, window, batches := r.Uint64n(1<<62), 1+int(r.Uint64n(12)), 2+int(r.Uint64n(3))
			ops := soakWorkload(r, opsPer, space)
			for i := range ops {
				ops[i].Migrate = false
			}
			run := func(par int) (engineState, fault.Stats) {
				reg := telemetry.NewRegistry()
				in := fault.NewInjector(fault.Config{Seed: seed ^ 0xfa017, BitFlip: 0.01, Drop: 0.01, Duplicate: 0.01, Stall: 0.005})
				c, err := NewCluster(ClusterOptions{SDIMMs: 4, Levels: 10, Split: true, Parity: true, Key: []byte("soak-key"),
					Seed: seed, Faults: in, Retry: fault.RetryPolicy{MaxAttempts: 4, Sleep: nop}, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				p := c.Pipeline(PipelineOptions{Window: window, Parallelism: par})
				defer p.Close()
				var results []BatchResult
				for per, lo := (len(ops)+batches-1)/batches, 0; lo < len(ops); lo += per {
					results = append(results, p.Do(ops[lo:min(lo+per, len(ops))])...)
				}
				return captureState(results, c.Positions(), c.StashLens(), reg, c.Health()), in.Stats()
			}
			base, stats := run(1)
			if stats.BitFlips == 0 || stats.Drops == 0 || stats.Duplicates == 0 || stats.Stalls == 0 {
				t.Fatalf("the injector missed a fault class: %+v", stats)
			}
			for _, h := range base.Health {
				if h.Retries+h.Retransmits == 0 {
					t.Fatalf("no fault reached %s's link: %+v", h.ID, h)
				}
			}
			for _, par := range []int{2, 4, 8} {
				got, gotStats := run(par)
				diffState(t, fmt.Sprintf("split window=%d batches=%d parallelism=%d", window, batches, par), base, got)
				if gotStats != stats {
					t.Errorf("parallelism %d: injector counts %+v, want %+v", par, gotStats, stats)
				}
			}
		})
	}
}

// TestPipelineSoakWindowOneMatchesSequential pins the mixed-stream pipeline
// (including migration steps) to the sequential path: with Window 1 every
// wave is one access, and on these perfect links — no APPEND is abandoned,
// so nothing re-homes and draws its leaves late — the RNG draw order, commit
// order, journal bytes, and migration accounting are identical, so the
// sequential runner must agree bit-for-bit on everything observable.
func TestPipelineSoakWindowOneMatchesSequential(t *testing.T) {
	r := rng.Stream(4241, "pipeline-soak-seq", 0)
	ops := soakWorkload(r, 240, 56)

	regSeq := telemetry.NewRegistry()
	cs, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("soak-key"), Seed: 77, Telemetry: regSeq,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqResults := make([]BatchResult, len(ops))
	for i, op := range ops {
		switch {
		case op.Migrate:
			// DrainStep's access on an address of the stream's choosing: a
			// read-shaped access whose payload is not delivered, counted under
			// cluster.migrations instead of the workload observers.
			seqResults[i].Err = cs.access(op).Err
		case op.Write:
			seqResults[i].Err = cs.Write(op.Addr, op.Data)
		default:
			seqResults[i].Data, seqResults[i].Err = cs.Read(op.Addr)
		}
	}
	seq := captureState(seqResults, cs.Positions(), cs.StashLens(), regSeq, cs.Health())

	regPipe := telemetry.NewRegistry()
	cp, err := NewCluster(ClusterOptions{
		SDIMMs: 4, Levels: 10, Key: []byte("soak-key"), Seed: 77, Telemetry: regPipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := cp.Pipeline(PipelineOptions{Window: 1, Parallelism: 1})
	defer p.Close()
	pipe := captureState(p.Do(ops), cp.Positions(), cp.StashLens(), regPipe, cp.Health())

	diffState(t, "soak window-1 vs sequential", seq, pipe)
}

// TestPipelineSoakCrashEquivalence drives a durable pipeline into a planned
// mid-stream crash — torn inside a multi-record wave group — at parallelism
// 1 and 4, and demands both runs report identical per-op outcomes, recover
// to identical position maps, and read back identical contents. The crash
// lands while the next wave's exchanges are already in flight, so this is
// the overlap's crash-semantics witness.
func TestPipelineSoakCrashEquivalence(t *testing.T) {
	r := rng.Stream(55, "pipeline-soak-crash", 0)
	ops := soakWorkload(r, 200, 48)

	run := func(par int) (errs []string, pos map[uint64]uint64, sweep [][]byte) {
		opts := ClusterOptions{
			SDIMMs: 4, Levels: 10, Key: []byte("soak-crash-key"), Seed: 31,
			Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 32},
		}
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PlanCrash(97, 9); err != nil {
			t.Fatal(err)
		}
		p := c.Pipeline(PipelineOptions{Window: 6, Parallelism: par})
		res := p.Do(ops)
		p.Close()
		c.Close()
		for i, rr := range res {
			if rr.Err != nil {
				errs = append(errs, fmt.Sprintf("%d: %s", i, rr.Err))
			}
		}
		rc, _, err := RecoverCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		for a := uint64(0); a < 48; a++ {
			d, err := rc.Read(a)
			if err != nil {
				d = []byte("err: " + err.Error())
			}
			sweep = append(sweep, d)
		}
		return errs, rc.Positions(), sweep
	}

	e1, p1, s1 := run(1)
	if len(e1) == 0 {
		t.Fatal("planned crash produced no failed ops")
	}
	e4, p4, s4 := run(4)
	if !reflect.DeepEqual(e1, e4) {
		t.Errorf("crash outcomes diverged across parallelism:\n--- par 1 ---\n%v\n--- par 4 ---\n%v", e1, e4)
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Errorf("recovered position maps diverged (%d vs %d entries)", len(p1), len(p4))
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Errorf("recovered contents diverged")
	}
}

// TestPipelineSoakRing runs the parallelism-equivalence wall over
// ring-eviction clusters: the deferred-flush engines add per-member state
// (eviction pointer, pending-flush countdown, invalid-slot masks) that the
// waves must keep in the exact sequential order, so a par-1 run and a par-4
// run of the same schedule must still agree bit for bit on everything
// captureState fingerprints. Scenarios cover both a clean run and a faulty
// one with a mid-stream fail-stop.
func TestPipelineSoakRing(t *testing.T) {
	cases := []soakScenario{
		{window: 6, batches: 3, ring: 4, failStop: -1},
		{window: 9, batches: 2, ring: 4, faulty: true, failStop: 2},
		{window: 3, batches: 4, ring: 8, failStop: -1},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for i, sc := range cases {
		sc.seed = uint64(9000 + 13*i)
		t.Run(sc.String(), func(t *testing.T) {
			r := rng.Stream(sc.seed, "pipeline-soak-ring", i)
			ops := soakWorkload(r, 240, 64)
			base := runSoak(t, sc, ops, 1)
			if len(base.Positions) == 0 {
				t.Fatalf("%v: baseline run touched no addresses", sc)
			}
			for _, par := range []int{2, 4} {
				got := runSoak(t, sc, ops, par)
				diffState(t, fmt.Sprintf("%v parallelism=%d", sc, par), base, got)
			}
		})
	}
}

// TestPipelineSoakRingCrashEquivalence is the ring leg of the planned-crash
// wall: the checkpoint now carries live ring-eviction state, and a recovery
// that dropped or misdecoded it would shift every later flush — so the
// recovered position maps and contents at parallelism 1 and 4 must still be
// identical, and identical to each other.
func TestPipelineSoakRingCrashEquivalence(t *testing.T) {
	r := rng.Stream(56, "pipeline-soak-ring-crash", 0)
	ops := soakWorkload(r, 200, 48)

	run := func(par int) (errs []string, pos map[uint64]uint64, sweep [][]byte) {
		opts := ClusterOptions{
			SDIMMs: 4, Levels: 10, RingFlushInterval: 4,
			Key: []byte("soak-crash-key"), Seed: 31,
			Durability: &DurabilityOptions{Dir: t.TempDir(), Interval: 32},
		}
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PlanCrash(97, 9); err != nil {
			t.Fatal(err)
		}
		p := c.Pipeline(PipelineOptions{Window: 6, Parallelism: par})
		res := p.Do(ops)
		p.Close()
		c.Close()
		for i, rr := range res {
			if rr.Err != nil {
				errs = append(errs, fmt.Sprintf("%d: %s", i, rr.Err))
			}
		}
		rc, _, err := RecoverCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		for a := uint64(0); a < 48; a++ {
			d, err := rc.Read(a)
			if err != nil {
				d = []byte("err: " + err.Error())
			}
			sweep = append(sweep, d)
		}
		return errs, rc.Positions(), sweep
	}

	e1, p1, s1 := run(1)
	if len(e1) == 0 {
		t.Fatal("planned crash produced no failed ops")
	}
	e4, p4, s4 := run(4)
	if !reflect.DeepEqual(e1, e4) {
		t.Errorf("ring crash outcomes diverged across parallelism:\n--- par 1 ---\n%v\n--- par 4 ---\n%v", e1, e4)
	}
	if !reflect.DeepEqual(p1, p4) {
		t.Errorf("recovered ring position maps diverged (%d vs %d entries)", len(p1), len(p4))
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Errorf("recovered ring contents diverged")
	}
}
