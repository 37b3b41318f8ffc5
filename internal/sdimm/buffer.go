package sdimm

import (
	"errors"
	"fmt"
	"slices"

	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

// AccessRequest is the decrypted body of an ACCESS command: one accessORAM
// to perform locally. Leaves are local to this SDIMM's subtree; the
// CPU-side frontend translates global leaves before sending.
type AccessRequest struct {
	Addr    uint64
	Op      oram.Op
	Data    []byte // payload for writes (always sent on the bus; dummy for reads)
	OldLeaf uint64
	NewLeaf uint64 // meaningful only when Keep
	Keep    bool   // the remapped block stays in this SDIMM
}

// AccessResponse is what FETCH_RESULT returns: the requested block, or a
// dummy when a written block stayed local (step 5 of Section III-C).
type AccessResponse struct {
	Block oram.Block
	Dummy bool
}

// BufferStats counts secure-buffer activity.
type BufferStats struct {
	Accesses          uint64 // accessORAM operations served
	ExtraAccesses     uint64 // transfer-queue drain accesses (probability p)
	Appends           uint64 // non-dummy APPENDs accepted
	DummyAppends      uint64
	TransferPeak      int
	TransferOverflows uint64 // forced drains because the queue was full
	Probes            uint64
}

// Buffer is the behavioural model of one SDIMM secure buffer: a local ORAM
// engine over the DIMM's own DRAM, the transfer queue of Section IV-C, and
// the PROBE/FETCH_RESULT mailbox. Timing is layered on by package protocol;
// Buffer defines what happens, not when.
type Buffer struct {
	id     string
	engine *oram.Engine

	transferQ   []oram.Block
	transferCap int
	drainProb   float64
	rng         *rng.Source

	mailbox []AccessResponse

	stats BufferStats

	// Reusable scratch, so a steady-state command allocates nothing: the
	// drain plan's path, HandleAccess's extra plans and HandleAppend's forced
	// plan (each valid until the next operation on the buffer, like the
	// engine's plans), and the payload buffers of blocks that left the
	// transfer queue for the stash (StashInsert copied them), which the next
	// APPENDs reuse.
	drainPath []uint64
	extra     []oram.AccessPlan
	forced    oram.AccessPlan
	freeData  [][]byte
}

// NewBuffer builds a secure buffer around a local ORAM engine.
func NewBuffer(id string, engine *oram.Engine, transferCap int, drainProb float64, r *rng.Source) (*Buffer, error) {
	if engine == nil {
		return nil, errors.New("sdimm: nil engine")
	}
	if transferCap <= 0 {
		return nil, errors.New("sdimm: non-positive transfer queue capacity")
	}
	if drainProb < 0 || drainProb > 1 {
		return nil, errors.New("sdimm: drain probability out of [0,1]")
	}
	if r == nil {
		return nil, errors.New("sdimm: nil randomness source")
	}
	return &Buffer{id: id, engine: engine, transferCap: transferCap, drainProb: drainProb, rng: r}, nil
}

// ID returns the buffer's identity string.
func (b *Buffer) ID() string { return b.id }

// Engine exposes the local ORAM engine (the protocol layer derives DRAM
// traffic from its access plans).
func (b *Buffer) Engine() *oram.Engine { return b.engine }

// Stats returns a snapshot of buffer statistics.
func (b *Buffer) Stats() BufferStats { return b.stats }

// TransferQueueLen returns current transfer-queue occupancy.
func (b *Buffer) TransferQueueLen() int { return len(b.transferQ) }

// HandleAccess executes one ACCESS command: the local accessORAM, the
// response enqueue, and the transfer-queue service policy of Section IV-C
// (a departing block creates a vacancy filled from the queue; with
// probability p an extra accessORAM drains one more queued block). It
// returns the access plan plus any extra eviction plans for the timing
// layer; both are valid until the next operation on the buffer.
func (b *Buffer) HandleAccess(req AccessRequest) (oram.AccessPlan, []oram.AccessPlan, error) {
	// A block still sitting in the transfer queue must be visible to the
	// access: promote it to the stash first.
	for i, q := range b.transferQ {
		if q.Addr == req.Addr {
			b.transferQ = slices.Delete(b.transferQ, i, i+1)
			if err := b.stashQueued(q); err != nil {
				return oram.AccessPlan{}, nil, fmt.Errorf("sdimm %s: promoting queued block: %w", b.id, err)
			}
			break
		}
	}
	blk, plan, err := b.engine.AccessAt(req.Addr, req.Op, req.Data, req.OldLeaf, req.NewLeaf, req.Keep)
	if err != nil {
		return plan, nil, fmt.Errorf("sdimm %s: access %d: %w", b.id, req.Addr, err)
	}
	b.stats.Accesses++

	var resp AccessResponse
	if req.Keep && req.Op == oram.OpWrite {
		resp.Dummy = true
	} else {
		resp.Block = blk
	}
	b.mailbox = append(b.mailbox, resp)

	var extra []oram.AccessPlan
	// A departure created a stash vacancy: admit one queued block for free.
	if !req.Keep {
		if err := b.admitOne(); err != nil {
			return plan, extra, err
		}
	}
	// With probability p, spend an extra accessORAM to drain the queue.
	if len(b.transferQ) > 0 && b.rng.Bool(b.drainProb) {
		p2, err := b.drainOne()
		if err != nil {
			return plan, extra, err
		}
		b.extra = append(b.extra[:0], p2)
		extra = b.extra
	}
	return plan, extra, nil
}

// stashQueued moves a block that left the transfer queue into the stash.
// StashInsert copies the payload, so its buffer goes back to the free list
// for the next APPEND.
func (b *Buffer) stashQueued(blk oram.Block) error {
	if err := b.engine.StashInsert(blk); err != nil {
		return err
	}
	if blk.Data != nil {
		b.freeData = append(b.freeData, blk.Data)
	}
	return nil
}

// popTransfer removes and returns the transfer-queue head, sliding the
// remaining entries down so the backing array (and its payload buffers'
// reachability) never grows beyond the queue capacity.
func (b *Buffer) popTransfer() oram.Block {
	blk := b.transferQ[0]
	n := copy(b.transferQ, b.transferQ[1:])
	b.transferQ[n] = oram.Block{}
	b.transferQ = b.transferQ[:n]
	return blk
}

// admitOne moves the head of the transfer queue into the normal stash.
func (b *Buffer) admitOne() error {
	if len(b.transferQ) == 0 {
		return nil
	}
	if err := b.stashQueued(b.popTransfer()); err != nil {
		return fmt.Errorf("sdimm %s: admitting transferred block: %w", b.id, err)
	}
	return nil
}

// drainOne admits a queued block and immediately performs an eviction
// access along the block's own path so it finds a home in the tree. The
// plan's path is buffer scratch.
func (b *Buffer) drainOne() (oram.AccessPlan, error) {
	blk := b.popTransfer()
	leaf := blk.Leaf
	if err := b.stashQueued(blk); err != nil {
		return oram.AccessPlan{}, fmt.Errorf("sdimm %s: draining transferred block: %w", b.id, err)
	}
	if err := b.engine.EvictPath(leaf); err != nil {
		return oram.AccessPlan{}, fmt.Errorf("sdimm %s: drain eviction: %w", b.id, err)
	}
	b.stats.ExtraAccesses++
	b.drainPath = b.engine.Geometry().Path(leaf, b.drainPath)
	return oram.AccessPlan{OldLeaf: leaf, NewLeaf: leaf, Path: b.drainPath}, nil
}

// HandleAppend executes an APPEND command. Dummies are discarded (their
// only purpose is making every SDIMM receive one block per access). A full
// transfer queue forces an immediate drain access, whose plan is returned
// so the timing layer can charge it (valid until the next operation on the
// buffer).
func (b *Buffer) HandleAppend(blk oram.Block, dummy bool) (*oram.AccessPlan, error) {
	if dummy {
		b.stats.DummyAppends++
		return nil, nil
	}
	var forced *oram.AccessPlan
	if len(b.transferQ) >= b.transferCap {
		b.stats.TransferOverflows++
		p, err := b.drainOne()
		if err != nil {
			return nil, err
		}
		b.forced = p
		forced = &b.forced
	}
	// The queue owns its payloads: the caller's buffer is typically the
	// source engine's response scratch, which the next access overwrites.
	if blk.Data != nil {
		var buf []byte
		if n := len(b.freeData); n > 0 {
			buf = b.freeData[n-1][:0]
			b.freeData[n-1] = nil
			b.freeData = b.freeData[:n-1]
		}
		blk.Data = append(buf, blk.Data...)
	}
	b.transferQ = append(b.transferQ, blk)
	if len(b.transferQ) > b.stats.TransferPeak {
		b.stats.TransferPeak = len(b.transferQ)
	}
	b.stats.Appends++
	return forced, nil
}

// HandleProbe answers a PROBE command: is a response ready?
func (b *Buffer) HandleProbe() bool {
	b.stats.Probes++
	return len(b.mailbox) > 0
}

// HandleFetchResult pops the oldest ready response (copy-down pop, so the
// mailbox backing array is reused instead of marching forward). The
// response's Block payload may be engine-owned scratch, valid until the
// buffer's next engine operation.
func (b *Buffer) HandleFetchResult() (AccessResponse, error) {
	if len(b.mailbox) == 0 {
		return AccessResponse{}, fmt.Errorf("sdimm %s: FETCH_RESULT with empty mailbox", b.id)
	}
	r := b.mailbox[0]
	n := copy(b.mailbox, b.mailbox[1:])
	b.mailbox[n] = AccessResponse{}
	b.mailbox = b.mailbox[:n]
	return r, nil
}

// RandState snapshots the buffer's drain-decision RNG for checkpointing.
func (b *Buffer) RandState() [4]uint64 { return b.rng.State() }

// RestoreRandState reloads a drain-decision RNG snapshot.
func (b *Buffer) RestoreRandState(s [4]uint64) { b.rng.Restore(s) }

// TransferBlocks returns a deep copy of the transfer queue in queue order
// (checkpoint capture). Order matters: admits and drains pop the head.
func (b *Buffer) TransferBlocks() []oram.Block {
	out := make([]oram.Block, len(b.transferQ))
	for i, blk := range b.transferQ {
		out[i] = blk
		out[i].Data = append([]byte(nil), blk.Data...)
	}
	return out
}

// RestoreTransfer replaces the transfer queue with checkpointed contents.
func (b *Buffer) RestoreTransfer(blocks []oram.Block) error {
	if len(blocks) > b.transferCap {
		return fmt.Errorf("sdimm %s: restoring %d queued blocks into capacity %d", b.id, len(blocks), b.transferCap)
	}
	q := make([]oram.Block, len(blocks))
	for i, blk := range blocks {
		q[i] = blk
		q[i].Data = append([]byte(nil), blk.Data...)
	}
	b.transferQ = q
	return nil
}

// TransferQueueSearch returns a copy of the queued block for addr, if any
// (the recovery scrub checks the queue before declaring a block lost).
func (b *Buffer) TransferQueueSearch(addr uint64) (oram.Block, bool) {
	for _, q := range b.transferQ {
		if q.Addr == addr {
			cp := q
			cp.Data = append([]byte(nil), q.Data...)
			return cp, true
		}
	}
	return oram.Block{}, false
}

// ShardAccess executes this SDIMM's part of one Split-protocol access
// (FETCH_DATA + FETCH_STASH + RECEIVE_LIST collapsed functionally: path
// read, shard update, deterministic greedy writeback, then background
// eviction while the stash runs hot — identical across shards because
// eviction is a pure function of stash contents and every shard engine
// draws its eviction leaves from the same seeded stream).
func (b *Buffer) ShardAccess(req AccessRequest) (oram.Block, oram.AccessPlan, error) {
	blk, plan, err := b.engine.AccessAt(req.Addr, req.Op, req.Data, req.OldLeaf, req.NewLeaf, true)
	if err != nil {
		return oram.Block{}, plan, fmt.Errorf("sdimm %s: shard access %d: %w", b.id, req.Addr, err)
	}
	b.stats.Accesses++
	return blk, plan, nil
}
