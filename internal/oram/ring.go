package oram

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file holds the engine's ring-eviction state (enabled by
// Options.RingFlushInterval). Ring mode runs the same accessPath as path
// mode with two decisions changed: a read lifts only the target block off
// its path and invalidates its slot in place, and the writeback is deferred
// to a deterministic reverse-lexicographic eviction pointer that flushes one
// path every A accesses (evictNext); each written bucket reserves dummy
// slots so it can absorb reads before the pointer returns. Steady-state
// traffic is read-mostly — roughly Levels bucket writes every A accesses
// instead of Levels per access — the write-traffic reduction
// TestRingWriteTraffic (here) and TestClusterRingWriteReduction (root
// package) gate on.
//
// Invariant: a real block has exactly one live copy — either one
// non-invalidated tree slot or one stash entry. A read moves the live copy
// from tree to stash (marking the slot dead in ringInvalid); a flush moves
// stash blocks back into fresh buckets and clears their dead-slot masks.
// readPath and the recovery scrub both consult ringInvalid so stale slots
// are never resurrected.

// Ring reports whether the engine runs in ring-eviction mode.
func (e *Engine) Ring() bool { return e.ringA > 0 }

// RingInvalidSlots returns the dead-slot bitmap for a bucket: bit i set
// means slot i holds a stale copy whose live version left the tree. The
// recovery scrub consults it so a stale slot does not count as a live copy
// of a lost block.
func (e *Engine) RingInvalidSlots(idx uint64) uint64 { return e.ringInvalid[idx] }

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
