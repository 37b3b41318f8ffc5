package oram

import (
	"errors"
	"fmt"

	"sdimm/internal/rng"
)

// Op is an ORAM operation type. Path ORAM performs identical work for both;
// the type only selects whether payload data flows in or out.
type Op int

// Operations accepted by Access (the accessORAM interface of Section II-C).
const (
	OpRead Op = iota
	OpWrite
)

// AccessPlan records exactly what one accessORAM did: which path was read
// and rewritten, the leaf remapping, and the stash behaviour. The timing
// simulator replays plans as DRAM traffic; tests use them to check
// obliviousness invariants (the path depends only on the old leaf).
//
// Path and BackgroundLeaves are engine-owned scratch, valid only until the
// next operation on the engine that produced the plan; callers that retain
// a plan (e.g. to replay it as DRAM traffic later) must copy them.
type AccessPlan struct {
	Addr             uint64
	OldLeaf          uint64
	NewLeaf          uint64
	Path             []uint64 // bucket indices, root to leaf
	Found            bool     // block was present (false on first touch)
	StashAfter       int
	BackgroundEvicts int // dummy accesses performed to drain the stash
	// BackgroundLeaves are the leaves of those dummy accesses, in order;
	// the timing layer turns each into one more path read+write.
	BackgroundLeaves []uint64
}

// EngineStats counts engine activity.
type EngineStats struct {
	Accesses         uint64
	PathReads        uint64
	PathWrites       uint64
	BackgroundEvicts uint64
	StashPeak        int
}

// maxBackgroundEvicts bounds the background evictions one Access performs.
const maxBackgroundEvicts = 8

// Options configures an Engine.
type Options struct {
	Geometry       Geometry
	StashCapacity  int
	EvictThreshold int // background-evict when stash exceeds this
	Rand           *rng.Source
	// DisableAutoDrain turns off the automatic background eviction inside
	// Access/AccessAt. The Split timing model sets it: eviction decisions
	// are made by the CPU-side controller and pushed to every shard engine
	// via EvictPath, the paper's RECEIVE_LIST traffic.
	DisableAutoDrain bool
	// RingFlushInterval, when > 0, switches the engine into ring-eviction
	// mode with flush interval A: each access reads its path and lifts only
	// the target block into the stash (invalidating its slot in place —
	// no per-access writeback), and every A-th access flushes one path
	// chosen by a deterministic reverse-lexicographic eviction pointer.
	// Writebacks reserve dummy slots per bucket (Z/4, at least one) so
	// freshly evicted buckets can absorb reads before the pointer returns.
	// Ring mode draws no randomness: eviction order is a pure function of
	// the access count, which is what makes it bitwise-reproducible across
	// parallelism and crash recovery.
	RingFlushInterval int
}

// Engine is one Path ORAM instance (or, with Options.RingFlushInterval, a
// Ring ORAM one): tree store + stash + (optionally) a position map. With a
// position map, Access provides the full accessORAM operation. Without one,
// a distributed protocol drives the engine through AccessAt (the caller
// supplies both leaves), EvictPath and the stash primitives StashInsert and
// StashRemove — exactly the role of the secure buffer in the Independent
// protocol, where the CPU-side frontend owns the position map.
type Engine struct {
	geom  Geometry
	store Store
	mem   *MemStore // store, when it is the functional one
	pos   PositionMap
	stash *Stash
	rand  *rng.Source

	evictThreshold int
	autoDrain      bool

	// Ring-eviction state (ringA > 0 enables ring mode; see
	// Options.RingFlushInterval and ring.go). ringInvalid maps bucket index
	// to a bitmap of slots whose contents were consumed by a read and are
	// stale in the tree; the live copy is in the stash (or migrated away).
	ringA        int
	ringReserved int
	ringCounter  uint64 // eviction-pointer position (flushes performed)
	ringSince    uint32 // accesses since the last scheduled flush
	ringInvalid  map[uint64]uint64

	pending     bool
	pendingLeaf uint64

	stats EngineStats

	// Reusable hot-path scratch. One steady-state access performs zero heap
	// allocations: the path index buffers, the bucket staging areas, the
	// writeback's per-block scratch, and the response payload are all
	// reused, and every stash payload lives in an engine-owned buffer
	// recycled through freeBufs when its block is written back to the tree.
	// Buffers handed out (Access/AccessAt results, plan.Path,
	// plan.BackgroundLeaves) are valid only until the next engine operation.
	pathBuf   []uint64 // readPath's working path
	planPath  []uint64 // accessPath's stable copy handed out via AccessPlan
	readBkt   Bucket   // readPath bucket staging
	writeBkt  Bucket   // writePath bucket staging
	depths    []int8   // writePath: deepest level of the path each stash block may go to
	placed    []bool   // writePath: stash block already written into a bucket
	leavesBuf []uint64 // leaves of the current access's flushes and evictions
	respBuf   []byte   // accessed payload snapshot returned to callers
	freeBufs  [][]byte // recycled stash payload buffers
}

// takeBuf pops a recycled payload buffer (nil when the free list is empty).
func (e *Engine) takeBuf() []byte {
	if n := len(e.freeBufs); n > 0 {
		b := e.freeBufs[n-1]
		e.freeBufs[n-1] = nil
		e.freeBufs = e.freeBufs[:n-1]
		return b[:0]
	}
	return nil
}

// copyIn copies src into an engine-owned buffer; nil stays nil (sparse mode
// carries no payloads).
func (e *Engine) copyIn(src []byte) []byte {
	if src == nil {
		return nil
	}
	return append(e.takeBuf(), src...)
}

// zeroBuf returns an engine-owned zero-filled buffer of n bytes.
func (e *Engine) zeroBuf(n int) []byte {
	b := e.takeBuf()
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// recycle returns a payload buffer to the free list. Reuse order does not
// affect determinism: recycled buffers are always fully overwritten before
// they are observed again.
func (e *Engine) recycle(data []byte) {
	if cap(data) == 0 {
		return
	}
	e.freeBufs = append(e.freeBufs, data)
}

// NewEngine builds an engine over store. pos may be nil for protocol-driven
// use (Access then returns an error).
func NewEngine(store Store, pos PositionMap, opts Options) (*Engine, error) {
	if store == nil {
		return nil, errors.New("oram: nil store")
	}
	if opts.Geometry.Levels == 0 {
		return nil, errors.New("oram: zero geometry")
	}
	if opts.StashCapacity <= 0 {
		return nil, errors.New("oram: non-positive stash capacity")
	}
	if opts.EvictThreshold <= 0 || opts.EvictThreshold > opts.StashCapacity {
		return nil, errors.New("oram: eviction threshold out of (0, capacity]")
	}
	if opts.Rand == nil {
		return nil, errors.New("oram: nil randomness source")
	}
	e := &Engine{
		geom:           opts.Geometry,
		store:          store,
		pos:            pos,
		stash:          NewStash(opts.StashCapacity),
		rand:           opts.Rand,
		evictThreshold: opts.EvictThreshold,
		autoDrain:      !opts.DisableAutoDrain,
	}
	if ms, ok := store.(*MemStore); ok {
		ms.setTop(topLevels(opts.Geometry.Levels))
		e.mem = ms
	}
	if opts.RingFlushInterval < 0 {
		return nil, errors.New("oram: negative ring flush interval")
	}
	if opts.RingFlushInterval > 0 {
		reserved := store.Z() / 4
		if reserved < 1 {
			reserved = 1
		}
		if store.Z()-reserved < 1 {
			return nil, fmt.Errorf("oram: ring mode needs Z >= 2, got %d", store.Z())
		}
		e.ringA = opts.RingFlushInterval
		e.ringReserved = reserved
		e.ringInvalid = make(map[uint64]uint64)
	}
	return e, nil
}

// Geometry returns the tree geometry.
func (e *Engine) Geometry() Geometry { return e.geom }

// Store exposes the bucket store (integrity-failure injection in tests and
// advanced inspection).
func (e *Engine) Store() Store { return e.store }

// Stats returns a snapshot of engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// StashLen returns current stash occupancy.
func (e *Engine) StashLen() int { return e.stash.Len() }

// RandomLeaf draws a uniform leaf.
func (e *Engine) RandomLeaf() uint64 { return e.rand.Uint64n(e.geom.Leaves()) }

// PositionOf exposes the internal position map (nil-safe; ok=false without
// a map or for unmapped addresses).
func (e *Engine) PositionOf(addr uint64) (uint64, bool) {
	if e.pos == nil {
		return 0, false
	}
	return e.pos.Get(addr)
}

// Access performs one accessORAM(addr, op, data) operation: position-map
// lookup and remap, path read, block update, greedy writeback, and
// background eviction if the stash ran hot. For OpRead it returns the
// block's payload (zero-filled on first touch in functional mode, nil in
// sparse mode); for OpWrite it stores data.
//
// The returned payload is engine-owned scratch, valid only until the next
// engine operation; callers that retain it must copy.
func (e *Engine) Access(addr uint64, op Op, data []byte) ([]byte, AccessPlan, error) {
	if e.pos == nil {
		return nil, AccessPlan{}, errors.New("oram: Access requires a position map")
	}
	oldLeaf, mapped := e.pos.Get(addr)
	if !mapped {
		oldLeaf = e.RandomLeaf()
	}
	newLeaf := e.RandomLeaf()
	e.pos.Set(addr, newLeaf)

	plan, blk, err := e.accessPath(addr, op, data, oldLeaf, newLeaf, false)
	if err != nil {
		return nil, plan, err
	}
	var out []byte
	if op == OpRead && blk.Data != nil {
		out = blk.Data
	}
	e.stats.Accesses++
	return out, plan, nil
}

// AccessAt is the protocol-facing variant used by the SDIMM backends: the
// caller supplies the old and new leaves (the frontend owns the position
// map). If keep is false the block is removed from this engine and returned
// (Independent protocol: the block migrates to another SDIMM's stash); the
// departing block is held aside during writeback so no stale copy remains
// in this tree.
//
// The returned block's Data (and the plan's Path/BackgroundLeaves) are
// engine-owned scratch, valid only until the next engine operation; callers
// that retain them must copy.
func (e *Engine) AccessAt(addr uint64, op Op, data []byte, oldLeaf, newLeaf uint64, keep bool) (Block, AccessPlan, error) {
	plan, blk, err := e.accessPath(addr, op, data, oldLeaf, newLeaf, !keep)
	if err != nil {
		return Block{}, plan, err
	}
	e.stats.Accesses++
	return blk, plan, nil
}

// accessPath is the one accessORAM body behind Access and AccessAt, in both
// modes: read the path to oldLeaf, update addr's block in the stash, then
// write back. The modes differ at two points only. The read rule: path mode
// lifts the whole path into the stash and leaves its writeback pending, while
// ring mode opens the same buckets but lifts only addr's live copy,
// invalidating its slot. The write-back schedule: path mode rewrites the path
// now, while ring mode flushes the eviction pointer's next path every A
// accesses. Both then evict while the stash runs hot (path mode only with
// auto-drain on); the scheduled flush counts toward the per-access bound and
// lands in plan.BackgroundLeaves, but not in EngineStats.BackgroundEvicts.
// When migrate is set, the accessed block is kept out of this tree and
// returned for transfer elsewhere.
func (e *Engine) accessPath(addr uint64, op Op, data []byte, oldLeaf, newLeaf uint64, migrate bool) (AccessPlan, Block, error) {
	plan := AccessPlan{Addr: addr, OldLeaf: oldLeaf, NewLeaf: newLeaf}
	if !e.geom.ValidLeaf(oldLeaf) {
		return plan, Block{}, fmt.Errorf("oram: old leaf %d out of range", oldLeaf)
	}
	if !migrate && !e.geom.ValidLeaf(newLeaf) {
		return plan, Block{}, fmt.Errorf("oram: new leaf %d out of range", newLeaf)
	}
	path, err := e.readPath(oldLeaf, e.ringA > 0, addr)
	if err != nil {
		return plan, Block{}, err
	}
	// readPath's result aliases pathBuf, which the evictions below would
	// clobber; hand out a stable copy instead.
	e.planPath = append(e.planPath[:0], path...)
	plan.Path = e.planPath

	blk, found := e.stash.Get(addr)
	plan.Found = found
	if !found {
		blk = Block{Addr: addr, Leaf: newLeaf}
		if hint := e.blockBytesHint(); hint > 0 {
			blk.Data = e.zeroBuf(hint)
		}
	}
	blk.Leaf = newLeaf
	if op == OpWrite && data != nil {
		blk.Data = append(blk.Data[:0], data...)
	}
	if migrate {
		// The block leaves this ORAM entirely: the read took its only live
		// copy, so keeping it out of the stash leaves none here.
		e.stash.Remove(addr)
	} else if err := e.stash.Put(blk); err != nil {
		return plan, Block{}, err
	}

	// Snapshot the response payload before writeback: a writeback may place
	// the block back in the tree and recycle its stash buffer.
	if blk.Data != nil {
		e.respBuf = append(e.respBuf[:0], blk.Data...)
		if migrate {
			e.recycle(blk.Data)
		}
		blk.Data = e.respBuf
	}

	e.leavesBuf = e.leavesBuf[:0]
	if e.ringA == 0 {
		err = e.writePath(oldLeaf)
	} else if e.ringSince++; int(e.ringSince) >= e.ringA {
		e.ringSince = 0
		err = e.evictNext()
	}
	if err == nil && (e.autoDrain || e.ringA > 0) {
		err = e.drainStash()
	}
	if err != nil {
		return plan, Block{}, err
	}
	plan.BackgroundEvicts = len(e.leavesBuf)
	if len(e.leavesBuf) > 0 {
		plan.BackgroundLeaves = e.leavesBuf
	}
	plan.StashAfter = e.stash.Len()
	return plan, blk, nil
}

// blockBytesHint infers the payload size from the store (functional mode).
func (e *Engine) blockBytesHint() int {
	if e.mem != nil {
		return e.mem.blockBytes
	}
	return 0
}

// readPath opens every bucket on the path to leaf, skipping slots ring mode
// has invalidated, and returns the path's bucket indices (engine scratch,
// valid only until the next readPath). By default it lifts every live block
// into the stash and leaves the path pending: writePath on the same leaf must
// follow before the next readPath (Path ORAM empties what it reads; the
// writeback rewrites the whole path). With liftOne set — a ring-mode access —
// it lifts only addr's live copy and invalidates the slot it came from, so
// the tree stays consistent and nothing is pending.
func (e *Engine) readPath(leaf uint64, liftOne bool, addr uint64) ([]uint64, error) {
	if e.pending {
		return nil, fmt.Errorf("oram: reading path %d while path %d is pending writeback", leaf, e.pendingLeaf)
	}
	if !e.geom.ValidLeaf(leaf) {
		return nil, fmt.Errorf("oram: leaf %d out of range", leaf)
	}
	if cap(e.pathBuf) < e.geom.Levels {
		e.pathBuf = make([]uint64, e.geom.Levels)
	}
	path := e.geom.Path(leaf, e.pathBuf[:e.geom.Levels])
	if e.mem != nil {
		e.mem.touch(path)
	}
	for _, idx := range path {
		if err := e.store.ReadBucketInto(idx, &e.readBkt); err != nil {
			return nil, err
		}
		// An invalidated slot is a stale copy of a block whose live version
		// is in the stash (or migrated away): lifting it would resurrect
		// old data. The map is nil, so every mask 0, in path mode.
		dead := e.ringInvalid[idx]
		for si, slot := range e.readBkt.Slots {
			if slot.IsDummy() || dead&(1<<uint(si)) != 0 || liftOne && slot.Addr != addr {
				continue
			}
			// ReadBucketInto's payloads alias store scratch; move them
			// into engine-owned buffers before they enter the stash.
			slot.Data = e.copyIn(slot.Data)
			if err := e.stash.Put(slot); err != nil {
				e.recycle(slot.Data)
				return nil, err
			}
			if liftOne {
				e.ringInvalid[idx] = dead | 1<<uint(si)
				break
			}
		}
	}
	if !liftOne {
		e.pending = true
		e.pendingLeaf = leaf
	}
	e.stats.PathReads++
	e.notePeak()
	return path, nil
}

// writePath performs the greedy writeback: every bucket on the path to leaf
// is refilled from the stash, deepest level first, with blocks whose
// assigned leaf keeps them on this path. Ring mode leaves ringReserved
// dummy slots per bucket so a freshly written bucket can absorb reads (slot
// invalidations) before the pointer returns.
func (e *Engine) writePath(leaf uint64) error {
	if !e.pending || e.pendingLeaf != leaf {
		return fmt.Errorf("oram: writing back path %d without a matching read", leaf)
	}
	// Candidates are taken in address order, which is the order the stash
	// keeps its blocks in; each block's deepest legal level on this path is
	// computed once.
	blocks := e.stash.blocks
	depths, placed := e.depths[:0], e.placed[:0]
	for _, b := range blocks {
		depths = append(depths, int8(e.geom.CommonDepth(b.Leaf, leaf)))
		placed = append(placed, false)
	}
	e.depths, e.placed = depths, placed

	z := e.store.Z()
	fill := z - e.ringReserved
	for lvl := e.geom.Levels - 1; lvl >= 0; lvl-- {
		resetSlots(&e.writeBkt, z)
		n := 0
		for i := range blocks {
			if n == fill {
				break
			}
			if !placed[i] && int(depths[i]) >= lvl {
				e.writeBkt.Slots[n] = blocks[i]
				n++
				placed[i] = true
			}
		}
		idx := e.geom.BucketAt(leaf, lvl)
		if err := e.store.WriteBucket(idx, e.writeBkt); err != nil {
			return err
		}
		// Every slot in the bucket is fresh again (a no-op in path mode).
		delete(e.ringInvalid, idx)
	}
	// The tree now owns the placed blocks: their stash payload buffers are
	// free for reuse, and the unplaced ones close up in place, still sorted.
	kept := blocks[:0]
	for i, b := range blocks {
		if placed[i] {
			e.recycle(b.Data)
		} else {
			kept = append(kept, b)
		}
	}
	clear(blocks[len(kept):])
	e.stash.blocks = kept
	e.pending = false
	e.stats.PathWrites++
	return nil
}

// drainStash performs eviction accesses while the stash exceeds the
// eviction threshold, until leavesBuf holds maxBackgroundEvicts leaves (a
// scheduled ring flush already there counts toward the bound).
func (e *Engine) drainStash() error {
	for e.stash.Len() > e.evictThreshold && len(e.leavesBuf) < maxBackgroundEvicts {
		if err := e.evictNext(); err != nil {
			return err
		}
		e.stats.BackgroundEvicts++
	}
	return nil
}

// evictNext performs one eviction access and appends its leaf to leavesBuf.
// Path mode draws the leaf uniformly. Ring mode advances the eviction
// pointer, which walks the leaves in reverse-lexicographic order — the
// bit-reversed flush counter — so consecutive flushes touch maximally
// distant subtrees, every leaf is flushed once per Leaves() steps, and no
// randomness is drawn.
func (e *Engine) evictNext() error {
	var leaf uint64
	if e.ringA > 0 {
		leaf = reverseBits(e.ringCounter&(e.geom.Leaves()-1), e.geom.Levels-1)
		e.ringCounter++
	} else {
		leaf = e.RandomLeaf()
	}
	e.leavesBuf = append(e.leavesBuf, leaf)
	return e.EvictPath(leaf)
}

// EvictPath performs one externally-directed eviction access: it reads the
// path to leaf and greedily writes it back. The Split timing model's CPU
// controller calls this on every shard engine with the same leaf so shard
// placements never diverge; it is also a dummy access for timing purposes.
func (e *Engine) EvictPath(leaf uint64) error {
	if _, err := e.readPath(leaf, false, 0); err != nil {
		return err
	}
	return e.writePath(leaf)
}

// NeedsDrain reports whether the stash exceeds the eviction threshold.
func (e *Engine) NeedsDrain() bool { return e.stash.Len() > e.evictThreshold }

// StashInsert adds a block to the stash (the APPEND command of the
// Independent protocol and the Split protocol's FETCH_DATA destination).
// The payload is copied into an engine-owned buffer; the caller keeps
// ownership of b.Data.
func (e *Engine) StashInsert(b Block) error {
	if !e.geom.ValidLeaf(b.Leaf) {
		return fmt.Errorf("oram: inserting block with leaf %d out of range", b.Leaf)
	}
	b.Data = e.copyIn(b.Data)
	if err := e.stash.Put(b); err != nil {
		e.recycle(b.Data)
		return err
	}
	e.notePeak()
	return nil
}

// notePeak records the stash occupancy in StashPeak if it is a new high.
func (e *Engine) notePeak() {
	if e.stash.Len() > e.stats.StashPeak {
		e.stats.StashPeak = e.stash.Len()
	}
}

// StashRemove removes and returns the block for addr if present. Ownership
// of the block's payload buffer transfers to the caller.
func (e *Engine) StashRemove(addr uint64) (Block, bool) { return e.stash.Remove(addr) }

// RandState snapshots the engine's randomness stream for a durability
// checkpoint; restoring it makes post-recovery eviction draws replay the
// crashed run's exactly.
func (e *Engine) RandState() [4]uint64 { return e.rand.State() }

// RestoreRandState loads a RandState snapshot.
func (e *Engine) RestoreRandState(s [4]uint64) { e.rand.Restore(s) }

// StashBlocks returns a deep copy of the stash contents in address order
// (checkpoint capture; the stash's own order makes the snapshot byte-stable).
func (e *Engine) StashBlocks() []Block {
	out := make([]Block, 0, e.stash.Len())
	e.stash.Range(func(b Block) bool {
		b.Data = append([]byte(nil), b.Data...)
		out = append(out, b)
		return true
	})
	return out
}

// RestoreStash replaces the stash contents with blocks (checkpoint
// restore). The engine must be quiescent (no pending path writeback).
// Every block is validated up front — the same leaf-range check StashInsert
// applies, plus dummy and capacity checks — so a corrupted snapshot fails
// closed without disturbing the current stash.
func (e *Engine) RestoreStash(blocks []Block) error {
	if e.pending {
		return fmt.Errorf("oram: RestoreStash while path %d is pending writeback", e.pendingLeaf)
	}
	if len(blocks) > e.stash.Capacity() {
		return fmt.Errorf("%w: restoring %d blocks into capacity %d", ErrStashOverflow, len(blocks), e.stash.Capacity())
	}
	for _, b := range blocks {
		if b.IsDummy() {
			return errors.New("oram: restoring dummy stash block")
		}
		if !e.geom.ValidLeaf(b.Leaf) {
			return fmt.Errorf("oram: restoring block %d with leaf %d out of range", b.Addr, b.Leaf)
		}
	}
	var addrs []uint64
	e.stash.Range(func(b Block) bool {
		addrs = append(addrs, b.Addr)
		return true
	})
	for _, a := range addrs {
		if blk, ok := e.stash.Remove(a); ok {
			e.recycle(blk.Data)
		}
	}
	for _, b := range blocks {
		b.Data = e.copyIn(b.Data)
		if err := e.stash.Put(b); err != nil {
			return err
		}
	}
	return nil
}

// StashGet returns the block for addr without removing it.
func (e *Engine) StashGet(addr uint64) (Block, bool) { return e.stash.Get(addr) }
