package chaos

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"

	"sdimm"
	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/rng"
	"sdimm/internal/telemetry"
)

// payloadLen is the number of payload bytes the harness writes and
// verifies per block.
const payloadLen = 24

// buildWorkload pre-draws the whole workload, so the twin, every
// incarnation, and both engine homes replay one identical stream.
func buildWorkload(sc Scenario) []sdimm.BatchOp {
	r := rng.New(sc.Seed)
	ops := make([]sdimm.BatchOp, sc.Accesses)
	for i := range ops {
		ops[i].Addr = r.Uint64n(sc.Addresses)
		if r.Bool(0.5) {
			ops[i].Write = true
			ops[i].Data = make([]byte, payloadLen)
			for j := range ops[i].Data {
				ops[i].Data[j] = byte(r.Uint64n(256))
			}
		}
	}
	return ops
}

// run is one execution of the scenario's workload and topology schedule:
// the subject (killed and recovered per the crash plan) or its uncrashed
// twin. It keeps no driver state across restarts — workload position, drain
// progress and membership are recomputed from the recovered cluster.
type run struct {
	sc  Scenario
	ops []sdimm.BatchOp
	dir string // state directory; "" runs without durability
	// observed marks the one run that is never interrupted — the subject
	// without a crash plan, its twin with one — which carries the scenario's
	// registry and the tap.
	observed bool

	in                 *fault.Injector // spans the incarnations
	tap                *linkTap        // observed run only
	exchangeViolations uint64          // error-free batches with an unexpected exchange count

	// The current incarnation; pipe is set when traffic goes through the
	// batched engine.
	c    *sdimm.Cluster
	pipe *sdimm.Pipeline
	reg  *telemetry.Registry
	// ops[segStart:segEnd] went to this incarnation: segEnd is next, or
	// past it by the refused tail of a chunk that lost a Split member.
	segStart, segEnd int

	// results[i] is the last outcome observed for ops[i] (durable.ErrCrashed
	// when that was only the crash), ops[:next] are committed, and
	// ops[:settled] folded into the Result and the reference map.
	results []sdimm.BatchResult
	next    int
	settled int
	ref     map[uint64][]byte // absent: state unknown since an errored access
}

func newRun(sc Scenario, ops []sdimm.BatchOp, observed bool) *run {
	r := &run{sc: sc, ops: ops, observed: observed, results: make([]sdimm.BatchResult, len(ops)),
		ref: map[uint64][]byte{}}
	for a := uint64(0); a < sc.Addresses; a++ {
		r.ref[a] = make([]byte, payloadLen) // never written reads as zeros
	}
	r.in = fault.NewInjector(sc.Faults)
	if observed {
		r.tap = newLinkTap(sc.members())
	}
	return r
}

// open builds the run's next incarnation: a fresh cluster, or one recovered
// from the state directory. This is the one place cluster options are made.
func (r *run) open(recovering bool) (report *durable.RecoveryReport, err error) {
	sc := r.sc
	var dur *sdimm.DurabilityOptions
	if r.dir != "" {
		dur = &sdimm.DurabilityOptions{Dir: r.dir, Interval: sc.Interval}
	}
	r.reg = telemetry.NewRegistry() // every incarnation is a fresh process
	if r.observed && sc.Telemetry != nil {
		r.reg = sc.Telemetry
	}
	key, seed := []byte("chaos-campaign-key"), sc.Seed^0xc0ffee
	if sc.Split {
		key, seed = []byte("chaos-split-key"), sc.Seed^0x5eed
	}
	opts := sdimm.ClusterOptions{
		SDIMMs:            sc.SDIMMs,
		Levels:            sc.Levels,
		Split:             sc.Split,
		Parity:            sc.Parity,
		RingFlushInterval: sc.RingFlushInterval,
		Key:               key,
		Seed:              seed,
		Faults:            r.in,
		Retry:             sc.Retry,
		Telemetry:         r.reg,
		Flight:            sc.Flight,
		Durability:        dur,
	}
	if r.tap != nil {
		opts.LinkTap = func(sd int, dir fault.Direction, attempt int, frame []byte) {
			r.tap.tap(sd, dir, attempt, frame)
			sc.Witness.Tap(sd, dir, attempt, frame)
		}
	}
	var c *sdimm.Cluster
	if recovering {
		c, report, err = sdimm.RecoverCluster(opts)
	} else {
		c, err = sdimm.NewCluster(opts)
	}
	if err != nil {
		return nil, err
	}
	r.c = c
	if sc.Parallelism > 1 {
		r.pipe = r.c.Pipeline(sdimm.PipelineOptions{Window: sc.Window, Parallelism: sc.Parallelism})
	}
	r.next = int(r.c.WorkloadSeq())
	r.segStart, r.segEnd = r.next, r.next
	return report, nil
}

// close ends the current incarnation. The cluster stays readable (Health
// and the durable-state accessors only look at memory), and closing it again
// is harmless — the epilogue does after a recovery that failed.
func (r *run) close() {
	if r.pipe != nil {
		r.pipe.Close()
		r.pipe = nil
	}
	r.c.Close() // the sweep is over; a journal close error changes no verdict
}

// exec runs one batch on whichever engine home the scenario selects —
// sequential Read / Write / DrainStep calls, or Pipeline.Do — and holds the
// batch to the exchange-count invariant on the observed run: with no error
// and no abandoned exchange, every Independent access puts exactly one
// ACCESS plus one APPEND per live member on the wire, and every Split access
// one ACCESS per live member, however many retries it took. Sequential
// batches are single accesses, so the check localizes; pipelined accesses
// interleave on the wire, so it takes its whole-batch form.
func (r *run) exec(batch []sdimm.BatchOp) (out []sdimm.BatchResult, crashed bool) {
	var started, abandoned uint64
	check := r.tap != nil
	if check {
		started, abandoned = r.tap.started.Load(), abandonedTotal(r.c.Health())
	}
	if r.pipe != nil {
		out = r.pipe.Do(batch)
	} else {
		out = make([]sdimm.BatchResult, len(batch))
		for k, op := range batch {
			switch {
			case op.Migrate:
				// DrainStep picks the lowest address still on the draining
				// member — the order NextMigrations listed them in.
				_, out[k].Err = r.c.DrainStep()
			case op.Write:
				out[k].Err = r.c.Write(op.Addr, op.Data)
			default:
				out[k].Data, out[k].Err = r.c.Read(op.Addr)
			}
		}
	}
	clean := true
	for _, res := range out {
		clean = clean && res.Err == nil
		crashed = crashed || errors.Is(res.Err, durable.ErrCrashed)
	}
	if check && clean {
		h := r.c.Health()
		live := len(h.SDIMMs) - len(h.Failed()) - len(h.Removed())
		perOp := 1 + live
		if r.sc.Split {
			perOp = live
		}
		if abandonedTotal(h) == abandoned && r.tap.started.Load()-started != uint64(len(batch)*perOp) {
			r.exchangeViolations++
		}
	}
	return out, crashed
}

func abandonedTotal(h sdimm.ClusterHealth) uint64 {
	var n uint64
	for _, sd := range h.SDIMMs {
		n += sd.Abandoned
	}
	return n
}

// topUp advances the drain toward quota q: the next-lowest addresses still
// on the draining member migrate as one batch. Idempotent given (cluster
// state, q) — exactly what crash resumption needs. The drain completes the
// moment nothing is left, whatever q says.
func (r *run) topUp(q uint64) error {
	for !r.sc.Split {
		m, moved := r.c.Draining()
		if m < 0 || moved >= q {
			break
		}
		addrs := r.c.NextMigrations(int(q - moved))
		if len(addrs) == 0 {
			if err := r.c.CompleteDrain(); err != nil {
				return err
			}
			r.setPhase(2)
			break
		}
		batch := make([]sdimm.BatchOp, len(addrs))
		for j, a := range addrs {
			batch[j] = sdimm.BatchOp{Addr: a, Migrate: true}
		}
		out, _ := r.exec(batch)
		for _, res := range out {
			if res.Err != nil {
				return res.Err
			}
		}
	}
	return nil
}

func (r *run) setPhase(p int32) {
	if r.tap != nil {
		r.tap.phase.Store(p)
	}
}

// topology applies whatever the fail-stop and topology plans demand before
// workload op i, derived from (i, cluster state) alone.
func (r *run) topology(i int) error {
	sc := r.sc
	if sc.Split {
		// On Split both plans are a fail-stop; the topology plan adds the
		// rebuild. The fail-stop is not journaled (it is an external event,
		// not a committed state change), so after a restart it is re-applied
		// here before any further traffic — the same rule the twin follows.
		member, failAt, joinAt := sc.splitPlan()
		if failAt == 0 || i < failAt || r.c.Incarnation(member) != 0 {
			return nil
		}
		if !slices.Contains(r.c.Health().Failed(), member) {
			r.c.FailShard(member)
		}
		if i >= joinAt {
			return r.c.ReplaceMember(member)
		}
		return nil
	}
	if !sc.Resize {
		return nil
	}
	m := sc.Member
	if draining, _ := r.c.Draining(); i >= sc.beginAt() && draining < 0 &&
		r.c.Incarnation(m) == 0 && !r.c.Detached(m) {
		r.setPhase(1)
		if err := r.c.BeginDrain(m); err != nil {
			return err
		}
	}
	if i >= sc.joinAt() && r.c.Detached(m) {
		return r.c.AddSDIMM(m)
	}
	return nil
}

// chunkEnd bounds the batch of workload ops starting at the cursor: one op
// on the sequential homes and under an Independent topology plan (its
// actions and the drain's pacing sit between ops); otherwise everything up
// to the record at which a corrupt point stops the incarnation (or, with
// the stop waiting out a Split member's loss, to the end), cut where a Split
// fail-stop or rebuild sits between two ops, so waves fill and overlap.
func (r *run) chunkEnd(stopSeq uint64) int {
	sc := r.sc
	if r.pipe == nil || sc.Resize && !sc.Split {
		return r.next + 1
	}
	end := len(r.ops)
	if seq := r.c.Seq(); seq < stopSeq {
		end = r.next + int(min(uint64(end-r.next), stopSeq-seq))
	}
	if _, failAt, joinAt := sc.splitPlan(); sc.Split {
		for _, at := range []int{failAt, joinAt} {
			if r.next < at && at < end {
				end = at
			}
		}
	}
	return end
}

// drive advances the current incarnation from wherever its own state says
// it stopped until the workload and the topology schedule are exhausted, the
// record stream reaches stopSeq at an op boundary (both return nil), or a
// planned crash fires (durable.ErrCrashed).
func (r *run) drive(stopSeq uint64) error {
	for {
		// Op next-1 has committed: top the drain up to its quota — which also
		// resumes a round the crash interrupted. With the workload exhausted
		// any unfinished drain runs to the end, so the slot can still rejoin.
		q := r.sc.drainQuota(r.next - 1)
		if r.next == len(r.ops) {
			q = math.MaxInt64
		}
		if err := r.topUp(q); err != nil {
			return err
		}
		if err := r.topology(r.next); err != nil {
			return err
		}
		// A stop waits while a Split member is down: the bucket about to be
		// corrupted would be a second loss, and one parity member absorbs one.
		if r.next == len(r.ops) || r.c.Seq() >= stopSeq && !(r.sc.Split && len(r.c.Health().Failed()) > 0) {
			return nil
		}
		i, j := r.next, r.chunkEnd(stopSeq)
		out, crashed := r.exec(r.ops[i:j])
		copy(r.results[i:j], out)
		if crashed {
			return durable.ErrCrashed
		}
		r.segEnd = j
		// A Split member lost without parity headroom is fatal for the whole
		// run, not just this address. The chunk ends at the first op it
		// failed: no op after it committed (the rest of its wave lacked the
		// lost member too, and schedule refused every later wave's ops
		// before any draw), so a pipelined chunk reports the same loss as
		// one op at a time.
		if r.sc.Split {
			if k := slices.IndexFunc(out, func(res sdimm.BatchResult) bool {
				return errors.Is(res.Err, fault.ErrUnavailable)
			}); k >= 0 {
				r.next = i + k + 1
				return out[k].Err
			}
		}
		r.next = j
	}
}

// settle folds the outcomes of ops[settled:next] into res in op order (the
// pipeline preserves per-address ordering, so replaying its results in
// submission order is exact): reference-map bookkeeping, payload and error
// accounting and, given a twin, the per-operation diff against it. It runs
// after each recovery, once the recovered WorkloadSeq says which of the
// dying incarnation's ops committed.
func (r *run) settle(res *Result, twin *run) {
	for ; r.settled < r.next; r.settled++ {
		op, got := r.ops[r.settled], r.results[r.settled]
		res.Accesses++
		skipped := errors.Is(got.Err, durable.ErrCrashed)
		poisoned := r.sc.poisonAllowed() && errors.Is(got.Err, sdimm.ErrUnrecoverable)
		if twin != nil && !skipped && !poisoned {
			// The twin ran error-free, so any error here is a divergence.
			if ref := twin.results[r.settled]; got.Err != nil || !op.Write && !bytes.Equal(got.Data, ref.Data) {
				res.ResultMismatches++
			}
		}
		switch {
		case skipped:
			// Committed in the dying wave; only the crash was observed.
			res.SkippedResults++
			if op.Write {
				r.ref[op.Addr] = op.Data
			}
		case poisoned:
			// The poison contract working: the access ran, the lost payload
			// was refused rather than served as zeros.
			res.PoisonedReads++
		case got.Err != nil:
			// The address's state is unknown until the next successful write.
			res.Errors++
			delete(r.ref, op.Addr)
		case op.Write:
			r.ref[op.Addr] = op.Data
			res.Writes++
		default:
			res.Reads++
			if want, known := r.ref[op.Addr]; known && !bytes.Equal(got.Data[:payloadLen], want) {
				res.Mismatches++
			}
		}
	}
}

// crashPoints draws n unique restart points over records [1, total),
// ascending. The stream it draws from goes on to supply the tear offsets and
// corruption targets, so the whole plan is reproducible from the seed.
func crashPoints(pr *rng.Source, n int, total uint64) ([]uint64, error) {
	if uint64(n) >= total {
		return nil, fmt.Errorf("chaos: %d crash points need more than %d records", n, total)
	}
	set := map[uint64]bool{}
	for len(set) < n {
		set[1+pr.Uint64n(total-1)] = true
	}
	pts := make([]uint64, 0, n)
	for p := range set {
		pts = append(pts, p)
	}
	slices.Sort(pts)
	return pts, nil
}

// Run executes one scenario. It returns an error for harness-level failures
// (an invalid scenario, a cluster that could not be built or recovered) and
// for a Split run that lost a member without parity headroom; everything
// else is reported in the Result, which is filled as far as the run got.
func Run(sc Scenario) (Result, error) {
	sc, err := sc.prepared()
	if err != nil {
		return Result{}, err
	}
	res := Result{FaultRate: sc.Faults.Rate(), wantCrashes: sc.Crashes, resize: sc.Resize}
	ops := buildWorkload(sc)
	sub := newRun(sc, ops, sc.Crashes == 0)

	// A crash plan needs an uncrashed twin: same driver, no durability. Its
	// Seq still counts every would-be journal record, which is the stream
	// the restart points are drawn over.
	var twin *run
	var pts []uint64
	pr := rng.New(sc.Seed ^ 0xcfa54ed)
	if sc.Crashes > 0 {
		twin = newRun(sc, ops, true)
		if _, err := twin.open(false); err != nil {
			return res, err
		}
		derr := twin.drive(math.MaxUint64)
		var tw Result
		twin.settle(&tw, nil)
		twin.close()
		if derr != nil || tw.Errors != 0 || tw.Mismatches != 0 {
			return res, fmt.Errorf("chaos: uncrashed twin failed (%d errors, %d mismatches): %v", tw.Errors, tw.Mismatches, derr)
		}
		if pts, err = crashPoints(pr, sc.Crashes, twin.c.Seq()); err != nil {
			return res, err
		}
		if sub.dir = sc.Dir; sub.dir == "" {
			if sub.dir, err = os.MkdirTemp("", "sdimm-chaos-*"); err != nil {
				return res, err
			}
			defer os.RemoveAll(sub.dir)
		}
	}

	if _, err := sub.open(false); err != nil {
		return res, err
	}
	// One iteration per incarnation.
	for pi := 0; ; pi++ {
		stopSeq := uint64(math.MaxUint64)
		if pi < len(pts) {
			if sc.Corrupt {
				// Corrupt points stop cleanly at the first op boundary at or
				// past the point; the damage is done below.
				stopSeq = pts[pi]
			} else if err = sub.c.PlanCrash(int(pts[pi]-sub.c.Seq()), int(pr.Uint64n(160))); err != nil {
				// Tear points kill the journal at the point's record, at a
				// seeded byte offset within it.
				break
			}
		}
		err = sub.drive(stopSeq)
		if crashed := errors.Is(err, durable.ErrCrashed); err != nil && !crashed || err == nil && pi == len(pts) {
			break
		}
		if err == nil {
			// Flip a ciphertext bit in a seeded member's sealed bucket and
			// checkpoint the damage, so only the scrub can catch it.
			sub.c.CorruptBucket(int(pr.Uint64n(uint64(sc.members()))), int(pr.Uint64n(1<<16)))
			if err = sub.c.ForceCheckpoint(); err != nil {
				break
			}
		}
		sub.close()
		res.Crashes++
		var report *durable.RecoveryReport
		if report, err = sub.open(true); err != nil {
			break
		}
		res.Recoveries++
		res.Replayed += report.RecordsReplayed
		if report.TornTail {
			res.TornTails++
		}
		res.Repaired += report.BucketsRepaired
		res.Unrecoverable += report.BucketsUnrecoverable
		res.PoisonedAddrs += len(report.Poisoned)
		sub.settle(&res, twin)
	}
	sub.settle(&res, twin)

	// Telemetry equivalence: the final incarnation ran crash-free on its own
	// registry, so its access counters must equal the op counts of its
	// segment exactly (replays land in cluster.recovery.replayed, migrations
	// in cluster.migrations, never in cluster.accesses).
	var reads, writes uint64
	for _, op := range ops[sub.segStart:sub.segEnd] {
		if op.Write {
			writes++
		} else {
			reads++
		}
	}
	if c := sub.reg.Snapshot().Counters; c["cluster.accesses"] != reads+writes ||
		c["cluster.reads"] != reads || c["cluster.writes"] != writes {
		res.TelemetryMismatches++
	}

	if twin != nil && err == nil {
		// Position-map and migration-count equivalence, before the sweep
		// below disturbs the map.
		if !maps.Equal(sub.c.Positions(), twin.c.Positions()) {
			res.PositionMismatches++
		}
		if sub.c.MigrationSeq() != twin.c.MigrationSeq() {
			res.MigrationMismatches++
		}
		// Final payload sweep: every address of the working set must read
		// back exactly what the reference map holds — nothing lost in a
		// restart, a migration or a rebuild.
		for addr := uint64(0); addr < sc.Addresses; addr++ {
			got, rerr := sub.c.Read(addr)
			switch {
			case sc.poisonAllowed() && errors.Is(rerr, sdimm.ErrUnrecoverable):
				res.PoisonedReads++
			case rerr != nil || !bytes.Equal(got[:payloadLen], sub.ref[addr]):
				res.Mismatches++
			}
		}
	}

	// One epilogue for every exit past this point, the fatal one included.
	observed := cmp.Or(twin, sub)
	res.TrafficViolations = int(observed.exchangeViolations)
	res.TrafficViolations += int(observed.tap.violations.Load())
	res.frames = observed.tap.frames.Load()
	if sc.Resize && !sc.Split {
		res.TrafficViolations += int(observed.tap.drainViolations(sc.Member))
	}
	res.WitnessViolations = sc.Witness.Violations()
	res.FaultStats = sub.in.Stats()
	res.Health = sub.c.Health()
	if sc.Resize {
		res.Migrations = int(sub.c.MigrationSeq())
		res.Rejoined = sub.c.Incarnation(sc.Member) > 0
	}
	snap := sub.reg.Snapshot()
	res.Snapshot = &snap
	sub.close()
	// A failing post-mortem artifact must never mask the failure it
	// documents, so a dump error only leaves FlightDump empty.
	if sc.FlightPath != "" && (err != nil || !res.Green()) && sc.Flight.DumpFile(sc.FlightPath) == nil {
		res.FlightDump = sc.FlightPath
	}
	return res, err
}
