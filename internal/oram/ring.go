package oram

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file implements the engine's ring-eviction mode (enabled by
// Options.RingFlushInterval): reads lift only the target block off its path
// and invalidate its slot in place, writebacks are deferred to a
// deterministic reverse-lexicographic eviction pointer that flushes one
// path every A accesses, and each written bucket reserves dummy slots so it
// can absorb reads before the pointer returns. Steady-state traffic is
// read-mostly — roughly Levels bucket writes every A accesses instead of
// Levels per access — the write-traffic reduction TestRingWriteTraffic
// (here) and TestClusterRingWriteReduction (root package) gate on.
//
// Invariant: a real block has exactly one live copy — either one
// non-invalidated tree slot or one stash entry. A read moves the live copy
// from tree to stash (marking the slot dead in ringInvalid); a flush moves
// stash blocks back into fresh buckets and clears their dead-slot masks.
// ReadPath and the scrub pass both consult ringInvalid so stale slots are
// never resurrected.

// Ring reports whether the engine runs in ring-eviction mode.
func (e *Engine) Ring() bool { return e.ringA > 0 }

// RingFlushInterval returns the flush interval A (0 in path mode).
func (e *Engine) RingFlushInterval() int { return e.ringA }

// RingInvalidSlots returns the dead-slot bitmap for a bucket: bit i set
// means slot i holds a stale copy whose live version left the tree. The
// recovery scrub consults it so a stale slot does not count as a live copy
// of a lost block.
func (e *Engine) RingInvalidSlots(idx uint64) uint64 {
	if e.ringA == 0 {
		return 0
	}
	return e.ringInvalid[idx]
}

// ringAccessPath is accessPath's ring-mode body: read the path, lift only
// the target block into the stash, update it there, and defer all writeback
// to the eviction pointer. plan.Path is the path read (read-only traffic in
// this mode); every flush performed — the scheduled every-A flush and any
// forced stash-pressure flushes — lands in plan.BackgroundLeaves as a full
// path read+write.
func (e *Engine) ringAccessPath(addr uint64, op Op, data []byte, oldLeaf, newLeaf uint64, migrate bool) (AccessPlan, Block, error) {
	plan := AccessPlan{Addr: addr, OldLeaf: oldLeaf, NewLeaf: newLeaf}
	if e.pending {
		return plan, Block{}, fmt.Errorf("oram: ring access while path %d is pending writeback", e.pendingLeaf)
	}
	if !e.geom.ValidLeaf(oldLeaf) {
		return plan, Block{}, fmt.Errorf("oram: old leaf %d out of range", oldLeaf)
	}
	if !migrate && !e.geom.ValidLeaf(newLeaf) {
		return plan, Block{}, fmt.Errorf("oram: new leaf %d out of range", newLeaf)
	}
	if cap(e.pathBuf) < e.geom.Levels {
		e.pathBuf = make([]uint64, e.geom.Levels)
	}
	path := e.geom.Path(oldLeaf, e.pathBuf[:e.geom.Levels])
	e.planPath = append(e.planPath[:0], path...)
	plan.Path = e.planPath

	// Read every bucket on the path, but take only the live copy of addr
	// into the stash, invalidating the slot it came from. Everything else
	// stays in the tree untouched — no writeback this access.
	for _, idx := range path {
		if err := e.store.ReadBucketInto(idx, &e.readBkt); err != nil {
			return plan, Block{}, err
		}
		dead := e.ringInvalid[idx]
		for si, slot := range e.readBkt.Slots {
			if slot.IsDummy() || dead&(1<<uint(si)) != 0 || slot.Addr != addr {
				continue
			}
			slot.Data = e.copyIn(slot.Data)
			if err := e.stash.Put(slot); err != nil {
				e.recycle(slot.Data)
				return plan, Block{}, err
			}
			e.ringInvalid[idx] = dead | 1<<uint(si)
			break
		}
	}
	e.stats.PathReads++
	if e.stash.Len() > e.stats.StashPeak {
		e.stats.StashPeak = e.stash.Len()
	}

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
		// The block leaves this ORAM entirely; its tree slot (if any) was
		// invalidated above, so no live copy remains here.
		e.stash.Remove(addr)
	} else if err := e.stash.Put(blk); err != nil {
		return plan, Block{}, err
	}

	// Snapshot the response before any flush: the eviction pointer may
	// write the block back into the tree and recycle its stash buffer.
	if blk.Data != nil {
		e.respBuf = append(e.respBuf[:0], blk.Data...)
		if migrate {
			e.recycle(blk.Data)
		}
		blk.Data = e.respBuf
	}

	// Deferred writeback: the scheduled every-A flush, then deterministic
	// extra flushes while the stash runs hot (bounded like background
	// eviction). No randomness is drawn anywhere in ring mode.
	e.leavesBuf = e.leavesBuf[:0]
	e.ringSince++
	if int(e.ringSince) >= e.ringA {
		e.ringSince = 0
		leaf, err := e.ringFlush()
		if err != nil {
			return plan, Block{}, err
		}
		e.leavesBuf = append(e.leavesBuf, leaf)
	}
	for e.stash.Len() > e.evictThreshold && len(e.leavesBuf) < maxBackgroundEvicts {
		leaf, err := e.ringFlush()
		if err != nil {
			return plan, Block{}, err
		}
		e.leavesBuf = append(e.leavesBuf, leaf)
		e.stats.BackgroundEvicts++
	}
	plan.BackgroundEvicts = len(e.leavesBuf)
	if len(e.leavesBuf) > 0 {
		plan.BackgroundLeaves = e.leavesBuf
	}
	plan.StashAfter = e.stash.Len()
	return plan, blk, nil
}

// ringFlush advances the eviction pointer one step and evicts that path
// (full read + greedy writeback with reserved dummies). The pointer walks
// the leaves in reverse-lexicographic order — the bit-reversed access
// counter — so consecutive flushes touch maximally distant subtrees and
// every leaf is flushed exactly once per Leaves() steps.
func (e *Engine) ringFlush() (uint64, error) {
	leaf := reverseBits(e.ringCounter&(e.geom.Leaves()-1), e.geom.Levels-1)
	e.ringCounter++
	if err := e.EvictPath(leaf); err != nil {
		return leaf, err
	}
	return leaf, nil
}

// reverseBits reverses the low `bits` bits of x (the reverse-lexicographic
// eviction order of Ring ORAM).
func reverseBits(x uint64, bits int) uint64 {
	var r uint64
	for i := 0; i < bits; i++ {
		r = r<<1 | x&1
		x >>= 1
	}
	return r
}

// Ring-state snapshot wire format (durable checkpoints):
//
//	u64 ringCounter | u32 ringSince | u32 n | n × (u64 bucket, u64 mask)
//
// with buckets strictly increasing and every mask nonzero. The decoder is
// total — hostile input fails closed with an error, never a panic — and
// RestoreRingSnapshot additionally validates the decoded state against the
// engine's geometry and bucket shape.

const ringStateHeader = 8 + 4 + 4
const ringStateEntry = 8 + 8

// ringState is the decoded durable ring-eviction state.
type ringState struct {
	counter uint64
	since   uint32
	buckets []uint64
	masks   []uint64
}

// RingSnapshot serializes the engine's ring-eviction state for a durable
// checkpoint (nil in path mode). The dead-slot map is emitted in bucket
// order, so the snapshot is byte-stable.
func (e *Engine) RingSnapshot() []byte {
	if e.ringA == 0 {
		return nil
	}
	idxs := make([]uint64, 0, len(e.ringInvalid))
	for idx, mask := range e.ringInvalid {
		if mask != 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := make([]byte, ringStateHeader+len(idxs)*ringStateEntry)
	binary.BigEndian.PutUint64(out[0:], e.ringCounter)
	binary.BigEndian.PutUint32(out[8:], e.ringSince)
	binary.BigEndian.PutUint32(out[12:], uint32(len(idxs)))
	off := ringStateHeader
	for _, idx := range idxs {
		binary.BigEndian.PutUint64(out[off:], idx)
		binary.BigEndian.PutUint64(out[off+8:], e.ringInvalid[idx])
		off += ringStateEntry
	}
	return out
}

// decodeRingState parses a RingSnapshot payload. It accepts exactly the
// canonical encoding: the declared entry count must match the remaining
// length, buckets must be strictly increasing, and masks must be nonzero.
func decodeRingState(raw []byte) (ringState, error) {
	var st ringState
	if len(raw) < ringStateHeader {
		return st, fmt.Errorf("oram: ring state %d bytes, want >= %d", len(raw), ringStateHeader)
	}
	st.counter = binary.BigEndian.Uint64(raw[0:])
	st.since = binary.BigEndian.Uint32(raw[8:])
	n := binary.BigEndian.Uint32(raw[12:])
	body := raw[ringStateHeader:]
	if uint64(len(body)) != uint64(n)*ringStateEntry {
		return st, fmt.Errorf("oram: ring state body %d bytes, want %d entries", len(body), n)
	}
	st.buckets = make([]uint64, n)
	st.masks = make([]uint64, n)
	var prev uint64
	for i := uint32(0); i < n; i++ {
		off := int(i) * ringStateEntry
		idx := binary.BigEndian.Uint64(body[off:])
		mask := binary.BigEndian.Uint64(body[off+8:])
		if i > 0 && idx <= prev {
			return st, fmt.Errorf("oram: ring state buckets not strictly increasing at entry %d", i)
		}
		if mask == 0 {
			return st, fmt.Errorf("oram: ring state entry %d has empty mask", i)
		}
		st.buckets[i] = idx
		st.masks[i] = mask
		prev = idx
	}
	return st, nil
}

// RestoreRingSnapshot loads a RingSnapshot payload into the engine,
// replacing the current ring-eviction state. It fails closed: a snapshot
// that does not decode canonically, or whose contents exceed the engine's
// geometry or bucket shape, leaves the current state untouched.
func (e *Engine) RestoreRingSnapshot(raw []byte) error {
	if e.ringA == 0 {
		if len(raw) == 0 {
			return nil
		}
		return fmt.Errorf("oram: ring snapshot restored into a path-mode engine")
	}
	st, err := decodeRingState(raw)
	if err != nil {
		return err
	}
	if st.since >= uint32(e.ringA) {
		return fmt.Errorf("oram: ring state since=%d exceeds flush interval %d", st.since, e.ringA)
	}
	z := e.store.Z()
	for i, idx := range st.buckets {
		if idx >= e.geom.Buckets() {
			return fmt.Errorf("oram: ring state bucket %d out of range", idx)
		}
		if st.masks[i]>>uint(z) != 0 {
			return fmt.Errorf("oram: ring state mask %#x exceeds Z=%d slots", st.masks[i], z)
		}
	}
	e.ringCounter = st.counter
	e.ringSince = st.since
	clear(e.ringInvalid)
	for i, idx := range st.buckets {
		e.ringInvalid[idx] = st.masks[i]
	}
	return nil
}
