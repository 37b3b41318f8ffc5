package sdimm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"sdimm/internal/blame"
	"sdimm/internal/durable"
	"sdimm/internal/fault"
	"sdimm/internal/flight"
	"sdimm/internal/oram"
	isdimm "sdimm/internal/sdimm"
)

// This file is the execution engine for functional clusters: a pool of
// per-member workers and, on top of it, an access as one set of stages —
// schedule (every shared-RNG draw), the access share (each member's part of
// the wave's ops), commit (position and journal record), the post-commit
// step, and retire / finalize (the poison veto, delivery, counting). Each
// protocol supplies its half of those stages as a stage set (stages):
// Independent routes an op to the SDIMM owning its old leaf (accessTask:
// ACCESS + FETCH_RESULT there), broadcasts APPENDs after commit (appendTask)
// and re-homes lost blocks at finalize; Split stages a codeword, runs every
// op on every live member (ShardAccess), evicts after commit and rebuilds a
// down member's slice at finalize. One driver runs the stages, and it never
// tests the protocol: the wave loop (Pipeline.run) keeps a window of
// independent accesses in flight. Do and Serve are a slice feeder and a
// channel feeder over it; every sequential Cluster access (Read, Write,
// DrainStep, journal replay) is a one-op feeder over the cluster's inline
// pipeline, whose one wave launches and retires in a single iteration.
//
// One thing leaves the coordinator: a member's share of a fan-out, a
// func(member) handed to workerPool.submitWG — a wave's access shares (one
// per owning member), its APPEND broadcast or Split eviction round (one per
// member), its journal append (the pool's extra slot), a re-home.
// At Parallelism > 1 every slot is a persistent goroutine draining its shares
// FIFO; the Go scheduler caps how many run at once, so there is no
// concurrency token. At Parallelism 1 no goroutine exists and submitWG runs
// the share on the caller: the reference the equivalence suites compare
// every other setting against.
//
// The wave loop is decoupled: wave N+1's access shares run while wave N's
// APPEND broadcast and journal append are still in flight (a Split wave's
// eviction is barrier'd on the coordinator, so only its journal append
// overlaps the next wave). The coordinator
// holds at most two waves — the one being launched and the one being retired
// — and its serialized work per wave is scheduling, the commit walk, and
// result finalization. A lost real APPEND is re-homed at retirement, after
// the wave's broadcast.
//
// Determinism is preserved by construction, not by luck:
//
//   - Every draw from the cluster's shared RNG (leaf picks, re-homing, Split
//     eviction leaves) happens on the coordinator goroutine, in
//     logical-access order. Shares never touch shared randomness.
//   - Each member slot owns exactly one SDIMM's link, buffer, and health
//     record, and runs its shares FIFO in submission (= logical) order. The
//     submission order per member — wave N's ACCESS share, wave N's APPEND
//     share, wave N+1's ACCESS share, wave N's re-homes — is a pure function
//     of the schedule, so every buffer observes the same operation sequence
//     at any parallelism. Running each share to completion at submission
//     (Parallelism 1) is one of the interleavings that rule allows.
//   - Only the coordinator touches the position map: schedule reads it, the
//     commit walk writes each executed access's new position in logical
//     order (then journals it), and finalize's re-homes repoint it. Shares
//     never read or write it, so it is a plain unlocked map.
//   - Health is read through a coordinator-owned snapshot refreshed at the
//     quiescent points (the start of a run and one per wave-loop iteration),
//     so scheduling and re-homing decisions never race worker-side health
//     transitions. In the wave loop the snapshot is at most one wave
//     stale — a member that fails mid-wave is seen by the schedule one wave
//     later, exactly as a sequential client discovers a failure on its next
//     access.
//   - The wave schedule depends only on the configured window and the
//     addresses in flight, never on Parallelism, which decides where shares
//     run and nothing else.
//
// A Parallelism: 1 pipeline and a Parallelism: N pipeline therefore produce
// bitwise-identical position maps, stash contents, and telemetry counters
// from the same seed — the equivalence suites in parallel_test.go and
// parallel_soak_test.go prove it.

// task is a member's share of one fan-out and the group that tracks it.
type task struct {
	fn func(member int)
	wg *sync.WaitGroup
}

// workerPool runs shares on per-slot queues. Shares submitted to one slot
// execute FIFO in submission order; shares on different slots run
// concurrently. A pool built with parallelism ≤ 1 has no queues and no
// goroutines: its shares run on the submitter.
type workerPool struct {
	tasks []chan task
	once  sync.Once
}

// newWorkerPool returns a pool of n slots. With parallelism > 1 each slot is
// a persistent goroutine and queue bounds how many shares can be pending on
// it before submitWG blocks.
func newWorkerPool(n, parallelism, queue int) *workerPool {
	p := &workerPool{}
	if parallelism <= 1 {
		return p
	}
	p.tasks = make([]chan task, n)
	for i := range p.tasks {
		ch := make(chan task, queue)
		p.tasks[i] = ch
		go func() {
			for t := range ch {
				t.fn(i)
				t.wg.Done()
			}
		}()
	}
	return p
}

// submitWG hands slot w its share fn, tracked by the caller's WaitGroup —
// per fan-out groups let two waves be in flight without sharing a barrier.
// After wg.Wait the submitter observes every write the share made. An inline
// pool runs fn here, before returning.
func (p *workerPool) submitWG(w int, wg *sync.WaitGroup, fn func(member int)) {
	if p.tasks == nil {
		fn(w)
		return
	}
	wg.Add(1)
	p.tasks[w] <- task{fn, wg}
}

// close stops the workers. Idempotent. Callers wait their own groups first.
func (p *workerPool) close() {
	p.once.Do(func() {
		for _, ch := range p.tasks {
			close(ch)
		}
	})
}

// BatchOp is one operation submitted to a Pipeline: a read (Write false) or
// a write of Data (padded to the cluster block size). Migrate marks the op
// as a rebalance migration step (a read journaled as KindMigrate whose
// payload is not delivered); drivers build migration batches from
// Cluster.NextMigrations and interleave them with workload ops — on the
// channel the two are indistinguishable. A Split cluster has no migrations
// and refuses such an op.
type BatchOp struct {
	Addr    uint64
	Write   bool
	Data    []byte
	Migrate bool
}

// BatchResult is the outcome of one BatchOp. Data is the payload for reads
// (zeros if the address was never written); Err reports a failed access.
type BatchResult struct {
	Data []byte
	Err  error
}

// PipelineOptions size a Cluster access pipeline.
type PipelineOptions struct {
	// Window is the logical batch window: up to this many accesses are
	// scheduled into one wave. The wave schedule is a pure function of the
	// submitted operations and the window — never of Parallelism — so runs
	// that differ only in Parallelism stay bitwise identical. Default 8.
	Window int
	// Parallelism decides where the per-SDIMM work runs (default = Window):
	// 1 = inline on the caller, no goroutine at all — the reference; > 1 =
	// one goroutine per SDIMM plus one for the journal, however large the
	// value. The schedule never depends on it.
	Parallelism int
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = o.Window
	}
	return o
}

// Pipeline is a batched access engine over a Cluster: it keeps up to two
// waves of up to Window independent accesses in flight, fanning each
// member's share of them out to that member's worker — whole accessORAM
// operations on the owning SDIMMs (Independent), every op's slice on every
// member (Split) — and overlapping each wave's post-commit work and journal
// append with the next wave's access shares.
//
// The pipeline owns the cluster's request stream while in use: do not call
// Read/Write on the underlying Cluster concurrently with Do. Close stops
// the workers.
type Pipeline struct {
	c    *Cluster
	opts PipelineOptions
	pool *workerPool

	// Wave scratch, reused across waves so the steady-state batch loop
	// recycles its waveStates and pipeOps (and their payload buffers)
	// instead of reallocating them every wave.
	wsFree  []*waveState
	free    []*pipeOp
	pending []BatchOp // fed, not yet scheduled (feed order); see run

	// healthSnap is the coordinator's view of member health, refreshed at
	// the pipeline's quiescent points. Scheduling and re-homing read it
	// instead of the live health records, which workers mutate while the
	// coordinator plans the next wave.
	healthSnap []fault.State

	// rec is the wave being stamped, its bounds [0, stamped) set so far.
	// Only when observed (a blame collector or flight recorder is attached)
	// is a clock read at all.
	rec      flight.WaveRecord
	stamped  int
	observed bool
}

// Pipeline builds a batched access pipeline over the cluster.
func (c *Cluster) Pipeline(opts PipelineOptions) *Pipeline {
	opts = opts.withDefaults()
	return &Pipeline{
		c:        c,
		opts:     opts,
		observed: c.blame != nil || c.flight != nil,
		// One slot per member and one more, slot len(members), for the
		// journal. Three shares are the most a member can have pending: the
		// launching wave's access, the retiring wave's APPEND, a re-home.
		pool: newWorkerPool(len(c.members)+1, opts.Parallelism, 3),
	}
}

// Close stops the workers, if any. The pipeline must not be used after.
func (p *Pipeline) Close() { p.pool.close() }

// waveState is one wave in flight: its scheduled ops (whose addresses stall
// a conflicting next wave), the journal batch and its outcome, the WaitGroups
// tracking its fan-outs, and its three shares. States are pooled across waves.
type waveState struct {
	ops  []*pipeOp
	owns []bool // per member: owns at least one of ops
	recs []durable.Record
	res  []BatchResult // filled at retirement, one per op
	jerr error         // journal append outcome, written by the journal share

	wgA sync.WaitGroup // ACCESS fan-out
	wgB sync.WaitGroup // APPEND broadcast + journal append

	// The wave's shares, bound once when the state is first allocated so a
	// fan-out allocates nothing.
	access, appends, journal func(member int)
}

// touches reports whether the wave holds an op on addr.
func (w *waveState) touches(addr uint64) bool {
	for _, po := range w.ops {
		if po.addr == addr {
			return true
		}
	}
	return false
}

// takeWave pops a pooled waveState or allocates a fresh one. A pipeline
// holds at most two (launching + retiring), so the pool stays tiny.
func (p *Pipeline) takeWave() *waveState {
	n := len(p.wsFree)
	if n == 0 {
		w := &waveState{}
		w.access = func(member int) { p.c.st.share(p, w, member) }
		w.appends = func(member int) { p.appendTask(w, member) }
		w.journal = func(int) { w.jerr = p.c.appendRecords(w.recs) }
		return w
	}
	w := p.wsFree[n-1]
	p.wsFree[n-1] = nil
	p.wsFree = p.wsFree[:n-1]
	return w
}

// releaseWave returns a retired wave's ops to the pool and resets the state
// for reuse.
func (p *Pipeline) releaseWave(w *waveState) {
	for i, po := range w.ops {
		p.free = append(p.free, po)
		w.ops[i] = nil
	}
	w.ops = w.ops[:0]
	// Emptied without retaining payload references.
	clear(w.recs)
	w.recs = w.recs[:0]
	clear(w.res)
	w.res = w.res[:0]
	w.jerr = nil
	p.wsFree = append(p.wsFree, w)
}

// pipeOp is one access moving through a wave. Ops are pooled across waves:
// every field is reset by takeOp, and the slice fields keep their backing
// arrays so steady-state waves reuse them. out is the exception — it is
// handed to the caller in a BatchResult and never pooled.
type pipeOp struct {
	addr    uint64
	op      oram.Op
	migrate bool   // rebalance migration step (journals as KindMigrate)
	data    []byte // padded write payload (nil for reads; aliases dataBuf)

	oldG, newG uint64 // old and new leaf (global on Independent)
	sd, sdNew  int    // Independent: owner of oldG and of newG
	keep       bool
	down       int    // Split: the member the access does without (-1: none)
	cw         []byte // Split: the codeword, one shard-sized slice per member

	err       error  // first error on the access (a refusal at scheduling skips every exchange; exchange; ack)
	respErr   error  // a read the buffer ran, its response lost or unreadable (err at retirement)
	committed bool   // commit walk journaled this op
	respBody  []byte // exchange response copy (phase A, written by owner worker)
	dummy     bool   // the owner answered with a dummy, or a read's answer was lost
	blk       oram.Block
	out       []byte // read payload for delivery (worker-built, escapes)

	shareErr  []error  // Split: per-member failed access share (phase A)
	appendErr []error  // per-SDIMM failed append exchange (phase B)
	appendBad [][]byte // per-SDIMM malformed append ack (phase B)

	dataBuf []byte // reusable backing store for data
}

// takeOp pops a pooled pipeOp (or allocates the pool's first ones),
// resetting every field while keeping the reusable backing arrays.
func (p *Pipeline) takeOp() *pipeOp {
	n := len(p.free)
	if n == 0 {
		return &pipeOp{}
	}
	po := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*po = pipeOp{
		dataBuf:   po.dataBuf,
		respBody:  po.respBody[:0],
		shareErr:  po.shareErr[:0],
		appendErr: po.appendErr[:0],
		appendBad: po.appendBad[:0],
	}
	return po
}

// resized returns a zeroed slice of length n, reusing s's capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin opens the wave record: bound 0 is stamped now.
func (p *Pipeline) begin() {
	p.stamped = 0
	p.stampTo(0)
}

// mark closes phase ph. Phases skipped since the last mark close at zero
// length on the same bound, so the phases always tile the wave.
func (p *Pipeline) mark(ph flight.Phase) { p.stampTo(int(ph) + 1) }

// stampTo stamps every bound not yet stamped up to b with one clock read and
// the blame collector's idle meter at that reading.
func (p *Pipeline) stampTo(b int) {
	if !p.observed || p.stamped > b {
		return
	}
	now := flight.Now()
	idle := p.c.blame.Idle(now)
	for ; p.stamped <= b; p.stamped++ {
		p.rec.Bounds[p.stamped], p.rec.Idle[p.stamped] = now, idle
	}
}

// end closes the wave — a phase still open ends now — and hands the one
// record to both views: the blame collector folds it, the flight recorder
// keeps it.
func (p *Pipeline) end(ops int) {
	if !p.observed {
		return
	}
	p.mark(flight.PhaseCheckpoint)
	c := p.c
	p.rec.Index, p.rec.Ops = c.waves, ops
	c.waves++
	c.blame.Fold(&p.rec)
	c.flight.RecordWave(&p.rec)
}

// snapshotHealth refreshes the coordinator's health snapshot. Called only at
// quiescent points (no worker task in flight), so the read is race-free and
// the snapshot is a pure function of the completed exchange history.
func (p *Pipeline) snapshotHealth() {
	c := p.c
	if cap(p.healthSnap) < len(c.health) {
		p.healthSnap = make([]fault.State, len(c.health))
	}
	p.healthSnap = p.healthSnap[:len(c.health)]
	for i, h := range c.health {
		p.healthSnap[i] = h.State()
	}
}

// run is the wave loop, the one driver of the stages: Do, Serve and every
// sequential Cluster access feed it. Each iteration launches at most one new
// wave and retires the previous one, so wave N+1's ACCESS exchanges overlap
// wave N's APPEND broadcast and journal append. A wave with nothing behind it
// — the source exhausted and nothing pending, as for a lone access or the
// last wave of a Do — retires in the iteration that launched it. A checkpoint
// falls due only when a wave has retired, never before a run's first wave,
// and runs at the fully drained point right after that retirement; a Window-1
// run therefore checkpoints at the same committed sequence numbers as the
// same ops issued one at a time.
//
// The front ends differ only in the feeder they pass. fill tops pending up to
// Window from the feeder's source — waiting for the first op when block is
// set — and reports that the source is exhausted. deliver receives exactly
// one result per fed op, in feed order: waves retire FIFO, a wave finalizes
// in logical order, and an abort answers the never-scheduled tail only after
// everything in flight has retired. run returns the error that ended it early
// (a crash, a journal or checkpoint failure), nil once the source ran dry.
//
// Wave-fill policy: block is set only when the pipeline is idle (nothing in
// flight, nothing pending). With a wave in flight there is retirement work to
// do, and whatever the source queued while that wave ran joins the next one —
// arrivals coalesce behind the in-flight wave, so no fill timer is needed.
func (p *Pipeline) run(fill func(pending []BatchOp, block bool) ([]BatchOp, bool), deliver func(BatchResult)) error {
	c := p.c
	p.snapshotHealth()

	var prev *waveState
	pending, drained := p.pending[:0], false
	defer func() { p.pending = pending }() // empty on every exit; keeps the capacity

	for {
		if !drained && len(pending) < p.opts.Window {
			pending, drained = fill(pending, prev == nil && len(pending) == 0)
		}
		if len(pending) == 0 && prev == nil {
			// An idle fill comes back empty-handed only from an exhausted source.
			return nil
		}

		// The wave record: no-ops without a blame collector or flight
		// recorder attached; stamping draws no randomness and feeds nothing
		// back, so attaching them cannot perturb the wave schedule or the
		// bitwise-equivalence guarantee.
		p.begin()

		// Crash gate: the cluster died at a planned crash point or a durable
		// write failure. Nothing new is scheduled; the in-flight wave still
		// retires below — its journal outcome decides its results — and then
		// everything else fails with the latched error.
		dead := c.failed()
		// Checkpoint gate: a checkpoint falls due only when a wave retires,
		// never before a run's first. Due with a wave in flight, the pipeline
		// stalls the schedule and drains, and the checkpoint below captures a
		// quiescent image once that wave has retired.
		ckptDue := prev != nil && c.checkpointDue()

		var w *waveState
		if len(pending) > 0 && dead == nil && !ckptDue {
			w = p.scheduleWave(pending, prev)
		}
		if prev == nil {
			// Nothing to retire: both retire phases close with schedule,
			// before the access shares run (on the caller at Parallelism 1).
			p.mark(flight.PhaseFinalize)
		}
		if w != nil {
			p.dispatchAccess(w)
		}
		p.mark(flight.PhaseSchedule)
		if prev != nil {
			prev.wgB.Wait()
			p.mark(flight.PhaseRetireWait)
			p.retire(prev, deliver)
			prev = nil
			p.mark(flight.PhaseFinalize)
		}

		err, launched := dead, 0
		if w != nil {
			w.wgA.Wait()
			p.mark(flight.PhaseAccessWait)
			// Quiescent point: the previous wave is fully retired and this
			// wave's access shares have drained — no worker task is in flight.
			p.snapshotHealth()
			pending = slices.Delete(pending, 0, len(w.ops))
			if err = c.failed(); err != nil {
				// The previous wave's journal share failed while this wave's
				// exchanges ran (inline it ran first, and the gate above
				// caught it). Nothing of this wave may commit; results keep
				// any per-op exchange error (so they match the race-free
				// outcome) and report the failure otherwise.
				for _, po := range w.ops {
					if po.err == nil {
						po.err = err
					}
					deliver(BatchResult{Err: po.err})
				}
				p.releaseWave(w)
			} else {
				p.commit(w)
				p.mark(flight.PhaseCommit)
				p.postCommit(w)
				launched = len(w.ops)
				if drained && len(pending) == 0 {
					// Nothing behind the wave: it retires now, inside dispatch.
					w.wgB.Wait()
					err = w.jerr
					p.retire(w, deliver)
					ckptDue = c.checkpointDue()
				} else {
					prev = w
				}
			}
		}
		if ckptDue && err == nil {
			// Fully drained: no wave in flight. Dispatch ends here, so the
			// checkpoint interval carries exactly the checkpoint time.
			p.mark(flight.PhaseDispatch)
			err = c.ForceCheckpoint()
		}
		p.end(launched)
		if err != nil {
			// Answer every op that was never scheduled — pending here or
			// still in the feeder — with err, preserving the write-ahead
			// contract: nothing is acknowledged that the journal could not
			// back.
			for {
				for range pending {
					deliver(BatchResult{Err: err})
				}
				clear(pending)
				pending = pending[:0]
				if drained {
					return err
				}
				pending, drained = fill(pending, true)
			}
		}
	}
}

// Do executes ops through the pipeline and returns one result per op, in
// order: the slice feeder over run. Semantics match issuing the same
// operations through Read/Write one at a time, with two deliberate
// differences. Accesses in the same wave observe the position map and health
// state as of the wave's start. And a re-home's leaves are drawn at
// retirement, after the next wave has been scheduled, so once an APPEND is
// abandoned the two draw orders diverge (no payload is wrong; a later access
// may succeed on one side and be abandoned on the other). A wave never
// schedules an address that appears in the wave still in flight or earlier
// in itself (the schedule breaks there), so per-address read/write ordering
// is preserved exactly.
func (p *Pipeline) Do(ops []BatchOp) []BatchResult {
	res := make([]BatchResult, 0, len(ops))
	next := 0
	p.run(func(pending []BatchOp, _ bool) ([]BatchOp, bool) {
		n := min(p.opts.Window-len(pending), len(ops)-next)
		pending = append(pending, ops[next:next+n]...)
		next += n
		return pending, next == len(ops)
	}, func(r BatchResult) { res = append(res, r) })
	return res
}

// scheduleWave admits up to Window ops with addresses distinct from each
// other and from the wave still in flight, drawing all shared randomness on
// the coordinator in logical order. Returns nil when the first candidate op
// conflicts with the in-flight wave — the caller retires it and retries, so
// progress is guaranteed (with no wave in flight the first op never
// conflicts).
func (p *Pipeline) scheduleWave(pending []BatchOp, prev *waveState) *waveState {
	w := p.takeWave()
	for _, op := range pending[:min(len(pending), p.opts.Window)] {
		a := op.Addr
		if w.touches(a) || (prev != nil && prev.touches(a)) {
			// The next op must observe the earlier access's commit — and for
			// the in-flight wave, its append landing and any re-home — so the
			// wave ends here.
			break
		}
		w.ops = append(w.ops, p.schedule(op))
	}
	if len(w.ops) == 0 {
		p.releaseWave(w)
		return nil
	}
	return w
}

// schedule prepares one access on the coordinator, in logical order: the
// checks every protocol shares, then the stage set's routing with every
// shared-RNG draw the access needs. A refused op carries its error, is
// skipped by every later stage and reported at retirement.
func (p *Pipeline) schedule(op BatchOp) *pipeOp {
	c := p.c
	po := p.takeOp()
	po.addr, po.op = op.Addr, oram.OpRead
	po.migrate = op.Migrate
	if op.Write && !op.Migrate {
		po.op = oram.OpWrite
	}
	var err error
	switch {
	case op.Write && op.Migrate:
		err = fmt.Errorf("sdimm: migration op %d cannot be a write", op.Addr)
	case op.Write && len(op.Data) > c.blockSize:
		err = fmt.Errorf("sdimm: payload %d exceeds block size %d", len(op.Data), c.blockSize)
	default:
		err = c.st.schedule(p, po, op.Data)
	}
	po.err = err
	return po
}

// dispatchAccess hands every member the stage set names its access share of
// the wave: the member walks the wave in logical order and runs its part of
// each op.
func (p *Pipeline) dispatchAccess(w *waveState) {
	w.owns = resized(w.owns, len(p.c.members))
	p.c.st.owners(w)
	for sd, owns := range w.owns {
		if owns {
			p.pool.submitWG(sd, &w.wgA, w.access)
		}
	}
}

// accessTask runs one access in the owning SDIMM's share: the exchange, the
// response decode, and the read-payload copy. The payload copy is the one
// allocation that escapes — it is handed to the caller — so building it here
// takes it off the coordinator's critical path.
func (p *Pipeline) accessTask(po *pipeOp) {
	c := p.c
	st := c.blame.WorkerBegin()
	defer c.blame.WorkerEnd(blame.WorkerAccess, st)

	mask := uint64(1)<<c.localBits - 1
	req := isdimm.AccessRequest{
		Addr:    po.addr,
		Op:      po.op,
		Data:    po.data,
		OldLeaf: po.oldG & mask,
		NewLeaf: po.newG & mask,
		Keep:    po.keep,
	}
	resp, err := c.exchange(po.sd, "access", c.accessBody(po.sd, req, c.blockSize))
	if err != nil && !fault.Executed(err) {
		po.err = err
		return
	}
	if err == nil {
		// Exchange hands back transactor-owned scratch; a later op sharing
		// this link overwrites it, so the op keeps a copy, and the block
		// decodes as a view into it.
		po.respBody = append(po.respBody[:0], resp...)
		blk, dummy, derr := isdimm.UnmarshalBlockView(po.respBody, c.blockSize)
		if derr == nil {
			po.dummy = dummy
			po.blk = blk
			po.blk.Addr = po.addr
			po.blk.Leaf = po.newG & mask
			if po.op == oram.OpRead && !po.migrate {
				po.out = make([]byte, c.blockSize) // zeros for a dummy
				copy(po.out, blk.Data)
			}
			return
		}
		err = c.wrapErr(po.sd, "access response", derr)
	}
	// The buffer executed the access, but its response was lost or cannot
	// be decoded. The op still commits and runs its APPEND broadcast, so the
	// links carry the same frames for a read as for a write. A write's block
	// is its own payload: the write rebuilds it and succeeds. A read has no
	// block to carry, so every APPEND of its broadcast is a dummy, and it
	// fails at retirement.
	po.blk = oram.Block{Addr: po.addr, Leaf: po.newG & mask, Data: po.data}
	if po.op == oram.OpRead {
		po.dummy = true
		po.respErr = err
	}
}

// commit walks the wave in logical order on the coordinator and, for every
// access whose owning buffer executed it, sets the new position and makes
// its journal record. This is the staged-commit rule: the map moves only
// after the owning buffer has executed the access, so a fault before that
// point (however the retries end) leaves host and buffers exactly as they
// were and the address stays readable. An exchange abandoned before the
// buffer opened it leaves the map untouched and journals nothing; one the
// buffer executed commits, whether or not its response arrived. Later append
// failures cannot move the block again (a real append the buffer never
// opened is re-homed). A crash before the record is durable means the
// access never happened; after it, recovery replays it.
func (p *Pipeline) commit(w *waveState) {
	c := p.c
	for _, po := range w.ops {
		// A Split op does without a member whose share failed while the
		// survivors can carry it: at most one member missing, counting the one
		// down at schedule time, and a parity member to rebuild a read's slice
		// at finalize. Otherwise it fails closed, the lowest failed member's
		// error wrapped as unavailable, at any parallelism.
		for i, e := range po.shareErr {
			switch {
			case e == nil || po.err != nil:
			case po.down >= 0 || !c.HasParity():
				po.err = fmt.Errorf("%w: %w", fault.ErrUnavailable, e)
			default:
				po.down = i
			}
		}
		if po.err != nil {
			continue
		}
		// Built in the coordinator's logical order: the journal carries
		// migrations and workload interleaved exactly as scheduled.
		c.pos.Set(po.addr, po.newG)
		w.recs = append(w.recs, c.makeRecord(po.addr, po.op, po.data, po.migrate))
		po.committed = true
		if po.respErr != nil && !po.keep {
			// The read's block left its buffer inside the unusable response:
			// the address fails closed until a write heals it.
			c.poisoned[po.addr] = true
		}
	}
}

// postCommit launches the wave's post-commit step — the stage set's
// (Independent: the APPEND broadcast; Split: host-directed eviction) — and
// the journal append of its batch, which seals as one chained group (one tag
// per wave) on the pool's extra slot while the next wave's access shares
// run. Retirement waits for both before any of the wave's results are
// acknowledged: the write-ahead contract.
func (p *Pipeline) postCommit(w *waveState) {
	c := p.c
	c.st.postCommit(p, w)
	if len(w.recs) > 0 && c.dur != nil && !c.replaying {
		p.pool.submitWG(len(c.members), &w.wgB, w.journal)
	}
}

// appendTask is SDIMM j's share of the wave's APPEND broadcast: it walks the
// wave in logical order, so each buffer sees its appends in the same sequence
// at any parallelism.
func (p *Pipeline) appendTask(w *waveState, j int) {
	c := p.c
	st := c.blame.WorkerBegin()
	defer c.blame.WorkerEnd(blame.WorkerAppend, st)
	for _, po := range w.ops {
		if po.err != nil {
			continue
		}
		real := !po.keep && j == po.sdNew && !po.dummy
		if !real {
			// Own-health read: only this member's exchanges mutate
			// health[j], so the read is race-free and deterministic.
			if hs := c.health[j].State(); hs == fault.Failed || hs == fault.Removed {
				// A dead or removed buffer has no channel; its dummy is
				// undeliverable.
				continue
			}
		}
		ack, err := c.exchange(j, "append", c.appendBody(j, po.blk, !real))
		switch {
		case fault.Executed(err):
			// The buffer took the block; only its ack was lost.
		case err != nil:
			po.appendErr[j] = err
		case len(ack) != 1 || ack[0] != appendAck:
			po.appendBad[j] = append([]byte(nil), ack...)
		}
	}
}

// retire resolves a dispatched wave whose post-commit step and journal
// append (outcome w.jerr) have completed, delivers its results in logical
// order and returns it to the pool. Delivery comes last: a submitter that
// has its answer may inspect the cluster, so the wave's coordinator-side
// writes are done.
func (p *Pipeline) retire(w *waveState, deliver func(BatchResult)) {
	for _, po := range w.ops {
		if w.jerr != nil && po.committed {
			// The journal append died mid-wave (a planned crash point, or real
			// I/O failure). Some records may be durable, but acknowledging any
			// result now could acknowledge an access the journal lost — fail
			// every journaled op; recovery re-drives from the journal's valid
			// prefix.
			po.err = w.jerr
		}
		w.res = append(w.res, p.finalize(po))
	}
	for _, r := range w.res {
		deliver(r)
	}
	p.releaseWave(w)
}

// finalize resolves one access at retirement: the stage set's part, then
// the poison veto, payload delivery, and the cluster.* observation.
func (p *Pipeline) finalize(po *pipeOp) BatchResult {
	c := p.c
	c.st.finalize(p, po)
	if po.err == nil {
		po.err = po.respErr
	}

	// Poison veto at delivery: the access ran normally (keeping every RNG
	// draw and placement identical to an uncorrupted run), but a payload lost
	// to unrecoverable corruption is an error, not zeros. Replay is exempt —
	// it re-executes history, and the poisoned result was never delivered
	// anyway. Migration steps are exempt too — their payload is never
	// delivered, and a poisoned block must still be carried off a draining
	// member.
	if po.err == nil && po.op == oram.OpRead && !po.migrate && !c.replaying && c.poisoned[po.addr] {
		c.tm.poisonedReads.Inc()
		po.err = fmt.Errorf("sdimm: read %d: %w", po.addr, ErrUnrecoverable)
	}

	out := BatchResult{Err: po.err}
	if po.err == nil && po.op == oram.OpRead && !po.migrate {
		out.Data = po.out
	}
	// Migration steps are accounted under cluster.migrations, not the
	// workload access counters. Replay is counted only under
	// cluster.recovery.replayed.
	switch {
	case c.replaying:
	case po.migrate:
		if po.err == nil {
			c.tm.migrations.Inc()
		}
	default:
		c.tm.observe(po.op, po.err)
	}
	return out
}

// rehome places po's in-flight real block, whose append to member exclude
// was abandoned, on a healthy SDIMM other than exclude, then repoints the
// position map. It runs only after an append was abandoned — a
// channel-visible event — so the extra exchange leaks nothing the failure
// itself did not. Leaf draws read the health snapshot and happen on the
// coordinator, in logical order.
func (p *Pipeline) rehome(po *pipeOp, exclude int) error {
	c := p.c
	c.tm.rehomes.Inc()
	c.flight.Coordinator().Record(flight.KindRehome, po.addr, uint64(exclude))
	var lastErr error
	for try := 0; try < 8*len(c.members); try++ {
		g, err := c.pickLeaf(p.healthSnap)
		if err != nil {
			return err
		}
		sd := int(g >> c.localBits)
		if sd == exclude {
			continue
		}
		nb := po.blk
		nb.Leaf = g & (uint64(1)<<c.localBits - 1)
		c.tm.rehomeAttempts.Inc()
		ack, err := p.rehomeAppend(sd, nb)
		switch {
		case fault.Executed(err):
			// The block landed; only its ack was lost.
		case err != nil:
			lastErr = err
			continue
		case len(ack) != 1 || ack[0] != appendAck:
			return c.wrapErr(sd, "rehome append", fmt.Errorf("sdimm: malformed append ack %x", ack))
		}
		c.pos.Set(po.addr, g)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("sdimm: no alternative SDIMM for in-flight block")
	}
	c.tm.rehomeFailures.Inc()
	return fmt.Errorf("sdimm: re-homing block %d failed: %w", po.addr, lastErr)
}

// rehomeAppend runs one candidate re-home append as a share for the new
// owner, because per-SDIMM command scratch and link framing belong to the
// goroutine driving that link — the coordinator must not touch a link whose
// worker may be running the next wave's exchanges. The ack is copied out of
// the transactor's scratch for the same reason.
func (p *Pipeline) rehomeAppend(sd int, blk oram.Block) (ack []byte, err error) {
	c := p.c
	var wg sync.WaitGroup
	p.pool.submitWG(sd, &wg, func(int) {
		ws := c.blame.WorkerBegin()
		defer c.blame.WorkerEnd(blame.WorkerAppend, ws)
		var resp []byte
		if resp, err = c.exchange(sd, "rehome append", c.appendBody(sd, blk, false)); err == nil {
			ack = append([]byte(nil), resp...)
		}
	})
	wg.Wait()
	return ack, err
}

// AsyncOp is one operation submitted to the streaming pipeline front
// (Serve): the op plus the channel that receives its one result when the op
// retires. Every submitted op is answered — delivered, failed, or
// failed-on-crash — before Serve returns. Ops may share a Done channel: it
// then answers them in submission order, and it must be buffered for every
// op submitted on it and not yet received, or delivery blocks the pipeline.
type AsyncOp struct {
	Op   BatchOp
	Done chan BatchResult
}

// Serve is the pipeline's streaming front end: the channel feeder over run.
// It pulls individually submitted operations from in, coalesces them into
// waves of up to Window, and completes each AsyncOp as its wave retires. An
// idle pipeline waits for the first op and launches it at once with whatever
// else is already queued; a busy one takes whatever queued while the wave in
// flight ran. A partially filled wave therefore never waits for callers that
// never come.
//
// Serve owns the cluster's request stream while running: do not call Do,
// Read, or Write concurrently. It returns only after in is closed and every
// submitted op has received its result; after a crash (planned crash point
// or journal failure) remaining and subsequent ops fail with the crash
// error, preserving the write-ahead contract exactly as Do does. Ordering:
// ops are scheduled in arrival order, and two in-flight ops never share an
// address (the wave schedule breaks on conflicts), so per-address semantics
// match submitting them one at a time.
func (p *Pipeline) Serve(in <-chan *AsyncOp) {
	// acks[head:] are the admitted, not yet answered ops in arrival order —
	// the order run delivers in. Done channels are buffered, so delivery
	// never blocks the coordinator.
	var acks []*AsyncOp
	head := 0
	p.run(func(pending []BatchOp, block bool) ([]BatchOp, bool) {
		acks, head = slices.Delete(acks, 0, head), 0
		for len(pending) < p.opts.Window {
			var a *AsyncOp
			var ok bool
			if block {
				a, ok = <-in
				block = false
			} else {
				select {
				case a, ok = <-in:
				default:
					return pending, false
				}
			}
			if !ok {
				return pending, true
			}
			acks = append(acks, a)
			pending = append(pending, a.Op)
		}
		return pending, false
	}, func(r BatchResult) {
		acks[head].Done <- r
		head++
	})
}

// stages is one protocol's half of the wave engine. The driver (run) and
// the shared steps (schedule, dispatchAccess, commit, postCommit,
// retire) call it and never test the protocol: buildCluster picks the stage
// set once.
type stages interface {
	// schedule routes po — addr, op and migrate set, checks passed — with
	// every shared-RNG draw it needs and stages the write payload data, on
	// the coordinator. An error refuses the op.
	schedule(p *Pipeline, po *pipeOp, data []byte) error
	// owners marks w.owns for every member that gets an access share of w.
	owners(w *waveState)
	// share is member's access share of w: its part of each op, in logical
	// order, on member's worker.
	share(p *Pipeline, w *waveState, member int)
	// postCommit is the step after the commit walk, launched (Independent)
	// or run (Split) before the journal append is dispatched.
	postCommit(p *Pipeline, w *waveState)
	// finalize settles po at retirement, before the poison veto and
	// delivery.
	finalize(p *Pipeline, po *pipeOp)

	// serve is the device side of member sd's link: it runs one command on
	// the member's buffer and returns the response body to seal (nil and no
	// error for a command the protocol does not use).
	serve(sd int, kind isdimm.Command, payload []byte) ([]byte, error)
	// scrub is recovery's integrity pass over the restored members, before
	// the journal replay.
	scrub(report *durable.RecoveryReport) error
	// rebuildMember fills member i's freshly built incarnation at a join
	// (Independent: a join starts empty, so nothing).
	rebuildMember(i int) error
}

// independentStages is the Independent protocol: an op runs whole on the
// SDIMM owning its old leaf, its block moves with the APPEND broadcast, and
// a block whose APPEND was lost is re-homed at retirement.
type independentStages struct{ c *Cluster }

// schedule stages the write payload, routes po by its old leaf (drawn on a
// first touch) and draws the new one. Health reads go through the snapshot.
func (independentStages) schedule(p *Pipeline, po *pipeOp, data []byte) error {
	c := p.c
	if po.op == oram.OpWrite {
		po.data = padInto(&po.dataBuf, data, c.blockSize)
	}
	oldG, mapped := c.pos.Get(po.addr)
	if !mapped {
		var err error
		if oldG, err = c.pickLeaf(p.healthSnap); err != nil {
			return err
		}
	}
	po.oldG = oldG
	po.sd = int(oldG >> c.localBits)
	if st := p.healthSnap[po.sd]; st == fault.Failed || st == fault.Removed {
		return c.wrapErr(po.sd, "access", fault.ErrUnavailable)
	}
	newG, err := c.pickLeaf(p.healthSnap)
	if err != nil {
		return err
	}
	po.newG = newG
	po.sdNew = int(newG >> c.localBits)
	po.keep = po.sd == po.sdNew
	return nil
}

// owners marks every SDIMM that owns one of the wave's accesses.
func (independentStages) owners(w *waveState) {
	for _, po := range w.ops {
		if po.err == nil {
			w.owns[po.sd] = true
		}
	}
}

// share runs the member's own ops of the wave. It tests ownership first: an
// op of another member has its err written by that member's share.
func (independentStages) share(p *Pipeline, w *waveState, member int) {
	for _, po := range w.ops {
		if po.sd == member && po.err == nil {
			p.accessTask(po)
		}
	}
}

// postCommit launches the wave's APPEND broadcast — one share per SDIMM,
// outcomes landing in per-(op, SDIMM) slots resolved at retirement.
func (independentStages) postCommit(p *Pipeline, w *waveState) {
	c := p.c
	for _, po := range w.ops {
		po.appendErr = resized(po.appendErr, len(c.members))
		po.appendBad = resized(po.appendBad, len(c.members))
	}
	for j := range c.members {
		p.pool.submitWG(j, &w.wgB, w.appends)
	}
}

// finalize resolves po's APPEND outcomes: lost-append accounting,
// re-homing and malformed-ack detection.
func (independentStages) finalize(p *Pipeline, po *pipeOp) {
	c := p.c
	if po.err != nil {
		return
	}
	for j := range c.members {
		if po.appendErr[j] != nil {
			c.tm.appendsLost.Inc()
			if !po.keep && j == po.sdNew && !po.dummy {
				// The migrating block was in this exchange: re-home it
				// instead of losing the payload.
				if rerr := p.rehome(po, j); rerr != nil && po.err == nil {
					po.err = rerr
				}
			}
			continue
		}
		if po.appendBad[j] != nil && po.err == nil {
			po.err = c.wrapErr(j, "append", fmt.Errorf("sdimm: malformed append ack %x", po.appendBad[j]))
		}
	}
}

func (independentStages) rebuildMember(int) error { return nil }

// splitStages is the Split protocol: every op runs on every live member,
// each holding one shard-sized slice of every block — the data slices, then
// with parity their XOR — and the host directs eviction with shared
// randomness so the shard trees stay in lockstep, every exchange over the
// member's sealed link.
type splitStages struct {
	c          *Cluster
	shard      int // bytes of every block each member holds
	dataShards int // members[:dataShards] hold data slices; the parity member, if any, follows

	// Eviction round scratch: the round's leaf and per-member errors, and
	// the share bound once so a round allocates nothing.
	leaf  uint64
	errs  []error
	wg    sync.WaitGroup
	evict func(member int)
}

// live reports whether a member is still in lockstep (not Failed).
func live(h *fault.Health) bool { return h.State() != fault.Failed }

// solveSlice recomputes member i's slice of codeword cw (one shard-sized
// slice per member, in member order) from every other member's.
func (s *splitStages) solveSlice(cw []byte, i int) {
	xorAcross(cw[i*s.shard:(i+1)*s.shard], s.c.others(i), func(j int) []byte { return cw[j*s.shard : (j+1)*s.shard] })
}

// schedule finds the (at most one) member the access must do without. A
// loss the redundancy cannot cover is refused here — before the leaf draws
// and before any member touches its tree — so a refused access leaves the
// survivors, the RNG and the position map as they were. It reads the live
// health records: the previous wave's shares and eviction rounds have all
// returned. It then draws the old (on a first touch) and new leaf of the
// shared tree and stages the codeword: a write hands member i slice i, a
// read lands member i's slice at i — the parity member is not special. A
// read's codeword escapes to the caller (its data prefix); a write's is
// staged in the op's reusable buffer.
func (s *splitStages) schedule(p *Pipeline, po *pipeOp, data []byte) error {
	c := s.c
	if po.migrate {
		return fmt.Errorf("sdimm: migration op %d: a Split cluster has no routing to migrate", po.addr)
	}
	po.down = -1
	for i, h := range c.health {
		if live(h) {
			continue
		}
		if po.down >= 0 {
			return c.wrapErr(i, "shard access",
				fmt.Errorf("sdimm: members %d and %d both down: %w", po.down, i, fault.ErrUnavailable))
		}
		po.down = i
	}
	if po.down >= 0 && !c.HasParity() {
		return c.wrapErr(po.down, "shard access",
			fmt.Errorf("sdimm: shard down and no parity to reconstruct from: %w", fault.ErrUnavailable))
	}
	oldLeaf, ok := c.pos.Get(po.addr)
	if !ok {
		oldLeaf = c.rnd.Uint64n(c.leaves)
	}
	po.oldG, po.newG = oldLeaf, c.rnd.Uint64n(c.leaves)
	n := len(c.members) * s.shard
	if po.op == oram.OpRead {
		po.cw = make([]byte, n)
		po.out = po.cw[:c.blockSize:c.blockSize]
	} else {
		po.cw = padInto(&po.dataBuf, data, n)
		po.data = po.cw[:c.blockSize]
		if c.HasParity() {
			s.solveSlice(po.cw, s.dataShards)
		}
	}
	po.shareErr = resized(po.shareErr, len(c.members))
	return nil
}

// owners gives every live member — the parity member too, also on reads, so
// its tree stays in lockstep — a share, unless every op was refused.
func (s *splitStages) owners(w *waveState) {
	for _, po := range w.ops {
		if po.err == nil {
			for i, h := range s.c.health {
				w.owns[i] = live(h)
			}
			return
		}
	}
}

// share runs member's slice of every op of the wave, in logical order, into
// the member's own region of each codeword: one ACCESS exchange per op,
// carrying the slice of a write and bringing back the slice of a read. A
// failure lands in the member's own error slot, so shares are race-free;
// once the member has failed, it sits out the rest of the wave.
func (s *splitStages) share(p *Pipeline, w *waveState, member int) {
	c := s.c
	for _, po := range w.ops {
		if po.err != nil {
			continue
		}
		if !live(c.health[member]) {
			po.shareErr[member] = c.wrapErr(member, "shard access", fault.ErrUnavailable)
			continue
		}
		st := c.blame.WorkerBegin()
		// A read's slice is still zeros: the dummy payload a read carries.
		slice := po.cw[member*s.shard : (member+1)*s.shard]
		req := isdimm.AccessRequest{Addr: po.addr, Op: po.op, OldLeaf: po.oldG, NewLeaf: po.newG, Data: slice}
		resp, err := c.exchange(member, "shard access", c.accessBody(member, req, s.shard))
		if err == nil {
			blk, dummy, derr := isdimm.UnmarshalBlockView(resp, s.shard)
			if derr != nil {
				err = c.wrapErr(member, "shard access response", derr)
			} else if po.op == oram.OpRead && !dummy {
				copy(slice, blk.Data)
			}
		}
		if err != nil {
			// The member has left lockstep.
			c.health[member].MarkFailed(err)
			po.shareErr[member] = err
		}
		c.blame.WorkerEnd(blame.WorkerAccess, st)
	}
}

// postCommit is host-directed background eviction, up to 8 rounds per
// committed op while the group needs it. Each round's leaf is drawn on the
// coordinator, then every live member evicts it — one barrier'd fan-out of
// RECEIVE_LIST exchanges per round, since NeedsDrain must observe the
// finished round. The members are in lockstep, so any live one answers
// NeedsDrain for the group. A member whose round fails is marked Failed; a
// round that leaves the survivors unable to carry the wave fails every op
// of the wave that committed and ends the eviction.
func (s *splitStages) postCommit(p *Pipeline, w *waveState) {
	c := s.c
	rounds := 0
	for _, po := range w.ops {
		if po.committed {
			rounds += 8
		}
	}
	for n := 0; n < rounds; n++ {
		// Once members can fail mid-wave, every one of them may be down.
		ref := slices.IndexFunc(c.health, live)
		if ref < 0 || !c.members[ref].Engine().NeedsDrain() {
			return
		}
		s.leaf = c.rnd.Uint64n(c.leaves)
		s.errs = resized(s.errs, len(c.members))
		for i, h := range c.health {
			if live(h) {
				p.pool.submitWG(i, &s.wg, s.evict)
			}
		}
		s.wg.Wait()
		if err := errors.Join(s.errs...); err != nil {
			if len(c.Health().Failed()) == 1 && c.HasParity() {
				continue // the survivors carry the wave
			}
			for _, po := range w.ops {
				if po.committed && po.err == nil {
					po.err = fmt.Errorf("%w: %w", fault.ErrUnavailable, err)
				}
			}
			return
		}
	}
}

// evictShare is member's share of an eviction round: one RECEIVE_LIST
// exchange carrying the round's leaf, answered with the one-byte ack.
func (s *splitStages) evictShare(member int) {
	c := s.c
	st := c.blame.WorkerBegin()
	defer c.blame.WorkerEnd(blame.WorkerAppend, st)
	// One fixed-size body per round: the opcode and the leaf.
	body := binary.BigEndian.AppendUint64(append(c.cmdBufs[member][:0], byte(isdimm.CmdReceiveList)), s.leaf)
	c.cmdBufs[member] = body
	ack, err := c.exchange(member, "shard eviction", body)
	if err == nil && (len(ack) != 1 || ack[0] != appendAck) {
		err = c.wrapErr(member, "shard eviction", fmt.Errorf("sdimm: malformed eviction ack %x", ack))
	}
	if err != nil {
		c.health[member].MarkFailed(err)
		s.errs[member] = err
	}
}

// finalize rebuilds a read's data slice held by the down member from the
// survivors. Writes simply skip the dead member: the parity slice carries
// the missing shard's information for later reconstruction.
func (s *splitStages) finalize(p *Pipeline, po *pipeOp) {
	if po.committed && po.op == oram.OpRead && po.down >= 0 && po.down < s.dataShards {
		c := s.c
		c.tm.reconstructions.Inc()
		c.flight.Coordinator().Record(flight.KindReconstruct, po.addr, uint64(po.down))
		s.solveSlice(po.cw, po.down)
	}
}
