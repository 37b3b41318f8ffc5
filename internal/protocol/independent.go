package protocol

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/event"
	"sdimm/internal/oram"
	"sdimm/internal/rng"
	"sdimm/internal/sdimm"
)

// Sizes of host-link messages in bytes. Every long command carries one
// data block (real or dummy) plus an encrypted header; PROBE is a short
// read of the reserved block.
const (
	msgAccess = 72 // ACCESS: block + header (operation type hidden)
	msgProbe  = 8
	msgFetch  = 72 // FETCH_RESULT: block + new leaf
	msgAppend = 72 // APPEND: block (or dummy) + header
)

// IndependentBackend implements the Independent protocol (Section III-C):
// the global ORAM is partitioned by leaf MSBs into one complete sub-ORAM
// per SDIMM. The CPU side is the shared sdimmFront; each SDIMM runs whole
// accessORAM operations against its own DRAM. The host channel carries only
// the requested blocks, PROBE polling, and the APPEND broadcast that
// obfuscates block migration.
//
// Functional ORAM state transitions happen in submission order (so queue
// scheduling can never corrupt placement state); the work queues replay
// the corresponding bus traffic with demand accesses prioritized over
// posted LLC writebacks.
type IndependentBackend struct {
	*sdimmFront

	buffers []*sdimm.Buffer
	tms     []*treeMem

	localBits uint // local leaf bits per SDIMM
	ring      bool // ring-eviction engines: per-access path replay is read-only

	work []station[func(done func())] // per SDIMM: the local controller

	ready   []int      // per SDIMM: responses whose data has arrived from DRAM
	waiters [][]func() // per SDIMM: FIFO of fetchers awaiting a response
	probing []bool     // per SDIMM: probe loop active
}

// NewIndependent builds the Independent backend.
func NewIndependent(eng *event.Engine, cfg config.Config) (*IndependentBackend, error) {
	return newIndependent(eng, cfg, false)
}

// newIndependent builds the Independent topology; with ring set the per-SDIMM
// engines run in ring-eviction mode and the per-access path replay is
// read-only (writeback is deferred to the eviction pointer, which surfaces as
// background paths).
func newIndependent(eng *event.Engine, cfg config.Config, ring bool) (*IndependentBackend, error) {
	front, err := newSDIMMFront(eng, cfg, 0x1dde)
	if err != nil {
		return nil, err
	}
	k := cfg.NumSDIMMs
	localLevels := cfg.ORAM.Levels - int(log2(k))
	if localLevels < 2 {
		return nil, fmt.Errorf("protocol: %d SDIMMs need more than %d tree levels", k, cfg.ORAM.Levels)
	}
	b := &IndependentBackend{
		sdimmFront: front,
		localBits:  uint(localLevels - 1),
		ring:       ring,
		work:       make([]station[func(done func())], k),
		ready:      make([]int, k),
		waiters:    make([][]func(), k),
		probing:    make([]bool, k),
	}
	front.accessORAM = b.accessORAM
	ringA := 0
	if ring {
		ringA = cfg.ORAM.RingFlushInterval
	}
	if b.tms, err = front.sdimmTrees(0, k, localLevels, cfg.ORAM.LinesPerBucket()); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		eng2, err := oram.NewEngine(oram.NewSparseStore(cfg.ORAM.Z), nil, oram.Options{
			Geometry:          oram.MustGeometry(localLevels),
			StashCapacity:     cfg.ORAM.StashCapacity,
			EvictThreshold:    cfg.ORAM.EvictThreshold,
			RingFlushInterval: ringA,
			Rand:              rng.New(cfg.Seed ^ uint64(0xd1*i+7)),
		})
		if err != nil {
			return nil, err
		}
		buf, err := sdimm.NewBuffer(fmt.Sprintf("sdimm-%d", i), eng2,
			cfg.ORAM.TransferQueueCap, cfg.ORAM.DrainProb, rng.New(cfg.Seed^uint64(0xab*i+3)))
		if err != nil {
			return nil, err
		}
		b.buffers = append(b.buffers, buf)
	}
	return b, nil
}

// accessORAM runs one distributed accessORAM. All functional steps (the
// SDIMM's local access, the response, the APPEND placement) execute now,
// in submission order; the bus traffic replays on the timed queues.
//
// lane and cat drive tracing: phase boundary timestamps are captured per
// access so the phase spans tile [t0, end] of the accessORAM span exactly
// — link.send [t0,t1], sdimm.queue [t1,t1b], dram.path [t1b,t2],
// buffer.seal [t2,t2e], fetch.wait [t2e,t3], result.decrypt [t3,end].
func (b *IndependentBackend) accessORAM(addr uint64, op oram.Op, posted bool, lane int, cat string, cont func()) {
	b.st.AccessORAMs++
	tr := b.tracer
	t0 := uint64(b.eng.Now())
	var t1, t1b, t2, t2e, t3 uint64
	oldG, newG := b.remap(addr)

	mask := uint64(1)<<b.localBits - 1
	sd := int(oldG >> b.localBits)
	sdNew := int(newG >> b.localBits)
	keep := sd == sdNew

	// --- Functional execution (instantaneous, ordered) ---
	req := sdimm.AccessRequest{
		Addr:    addr,
		Op:      op,
		OldLeaf: oldG & mask,
		NewLeaf: newG & mask,
		Keep:    keep,
	}
	plan, extras, err := b.buffers[sd].HandleAccess(req)
	if err != nil {
		panic(fmt.Sprintf("protocol: independent access on sdimm %d (%s): %v", sd, b.buffers[sd].ID(), err))
	}
	// The buffers' plans alias buffer and engine scratch that later
	// operations overwrite (an APPEND's forced drain below among them); the
	// replay closures run after arbitrary interleaved accesses, so every
	// path kept is a copy taken at once.
	paths := [][]uint64{append([]uint64(nil), plan.Path...)}
	geom := b.buffers[sd].Engine().Geometry()
	for _, l := range plan.BackgroundLeaves {
		paths = append(paths, geom.Path(l, nil))
	}
	for _, ex := range extras {
		paths = append(paths, append([]uint64(nil), ex.Path...))
	}
	b.st.BgEvictions += uint64(plan.BackgroundEvicts)
	b.st.ExtraDrains += uint64(len(extras))
	if !b.buffers[sd].HandleProbe() {
		panic(fmt.Sprintf("protocol: independent access on sdimm %d (%s) produced no response", sd, b.buffers[sd].ID()))
	}
	resp, err := b.buffers[sd].HandleFetchResult()
	if err != nil {
		panic(fmt.Sprintf("protocol: independent fetch on sdimm %d (%s): %v", sd, b.buffers[sd].ID(), err))
	}
	blk := resp.Block
	blk.Leaf = newG & mask
	appendForced := make([][]uint64, b.cfg.NumSDIMMs)
	for j := 0; j < b.cfg.NumSDIMMs; j++ {
		real := !keep && j == sdNew && !resp.Dummy
		var forced *oram.AccessPlan
		if real {
			forced, err = b.buffers[j].HandleAppend(blk, false)
		} else {
			forced, err = b.buffers[j].HandleAppend(oram.Block{}, true)
		}
		if err != nil {
			panic(fmt.Sprintf("protocol: independent append on sdimm %d (%s): %v", j, b.buffers[j].ID(), err))
		}
		if forced != nil {
			b.st.ExtraDrains++
			appendForced[j] = append([]uint64(nil), forced.Path...)
		}
	}

	// --- Timing replay ---
	// 1. ACCESS command (always carries one block of data), then the
	// SDIMM's controller performs the path access(es).
	b.send(sd, msgAccess, func(event.Time) {
		t1 = uint64(b.eng.Now())
		tr.Complete(lane, "link.send", "link", t0, t1)
		b.enqueueWork(sd, posted, func(workDone func()) {
			t1b = uint64(b.eng.Now())
			tr.Complete(lane, "sdimm.queue", "queue", t1, t1b)
			runPath := b.tms[sd].accessPath
			if b.ring {
				// Ring reads lift one block and defer writeback, so the
				// per-access path is read-only on the bus; the eviction
				// pointer's flushes replay as background paths (full
				// read+write) below.
				runPath = b.tms[sd].readPath
			}
			runPath(paths[0], func() {
				t2 = uint64(b.eng.Now())
				t2e = t2 + uint64(b.enc)
				if tr != nil {
					tr.CompleteArgs(lane, "dram.path", "dram", t1b, t2,
						map[string]any{"sdimm": sd, "paths": len(paths)})
					tr.Complete(lane, "buffer.seal", "seal", t2, t2e)
				}
				b.eng.After(b.enc, func(event.Time) { b.ready[sd]++ })
				b.runLocalPaths(sd, paths[1:], 0, workDone)
			})
		})
	})

	// 2. The CPU polls and fetches, then broadcasts the APPENDs.
	b.waiters[sd] = append(b.waiters[sd], func() {
		t3 = uint64(b.eng.Now())
		tr.Complete(lane, "fetch.wait", "link", t2e, t3)
		for j := 0; j < b.cfg.NumSDIMMs; j++ {
			j := j
			forced := appendForced[j]
			b.send(j, msgAppend, func(event.Time) {
				if forced == nil {
					return
				}
				b.enqueueWork(j, false, func(workDone func()) {
					b.runLocalPaths(j, [][]uint64{forced}, 0, workDone)
				})
			})
		}
		// The requested data reaches the CPU after decryption.
		b.eng.After(b.enc, func(event.Time) {
			end := uint64(b.eng.Now())
			if tr != nil {
				tr.Complete(lane, "result.decrypt", "seal", t3, end)
				tr.CompleteArgs(lane, "accessORAM", cat, t0, end,
					map[string]any{"sdimm": sd, "addr": addr})
			}
			cont()
		})
	})
	b.startProbing(sd)
}

// runLocalPaths chains path traffic on one SDIMM's internal channel.
func (b *IndependentBackend) runLocalPaths(sd int, paths [][]uint64, i int, done func()) {
	if i == len(paths) {
		done()
		return
	}
	b.tms[sd].accessPath(paths[i], func() {
		b.runLocalPaths(sd, paths, i+1, done)
	})
}

// enqueueWork serializes traffic replay on one SDIMM's controller; demand
// work bypasses posted work.
func (b *IndependentBackend) enqueueWork(sd int, posted bool, work func(done func())) {
	b.work[sd].push(work, posted)
	b.pumpWork(sd)
}

func (b *IndependentBackend) pumpWork(sd int) {
	w, ok := b.work[sd].take()
	if !ok {
		return
	}
	w(func() {
		b.work[sd].busy = false
		b.pumpWork(sd)
	})
}

// startProbing runs the PROBE loop for an SDIMM while fetchers wait.
func (b *IndependentBackend) startProbing(sd int) {
	if b.probing[sd] {
		return
	}
	b.probing[sd] = true
	b.eng.After(event.Time(b.cfg.ProbeInterval), func(event.Time) { b.probe(sd) })
}

func (b *IndependentBackend) probe(sd int) {
	if len(b.waiters[sd]) == 0 {
		b.probing[sd] = false
		return
	}
	b.st.Probes++
	b.send(sd, msgProbe, func(event.Time) {
		if b.ready[sd] > 0 && len(b.waiters[sd]) > 0 {
			b.ready[sd]--
			// FETCH_RESULT returns the block.
			b.send(sd, msgFetch, func(event.Time) {
				w := b.waiters[sd][0]
				b.waiters[sd] = b.waiters[sd][1:]
				w()
				b.probeNext(sd)
			})
			return
		}
		b.probeNext(sd)
	})
}

func (b *IndependentBackend) probeNext(sd int) {
	if len(b.waiters[sd]) == 0 {
		b.probing[sd] = false
		return
	}
	b.eng.After(event.Time(b.cfg.ProbeInterval), func(event.Time) { b.probe(sd) })
}

// Stats implements Backend, aggregating per-buffer maxima.
func (b *IndependentBackend) Stats() BackendStats {
	s := b.st
	for _, buf := range b.buffers {
		bs := buf.Stats()
		if bs.TransferPeak > s.TransferPeak {
			s.TransferPeak = bs.TransferPeak
		}
		if p := buf.Engine().Stats().StashPeak; p > s.StashPeak {
			s.StashPeak = p
		}
		s.TransferOverflows += bs.TransferOverflows
	}
	return s
}

// Buffers exposes the secure buffers (tests inspect transfer queues).
func (b *IndependentBackend) Buffers() []*sdimm.Buffer { return b.buffers }
