package oram

import (
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
//
// A durable checkpoint carries this state as a RingState value; its bytes
// are stated by the checkpoint codec in internal/durable, so the only byte
// format oram owns is the sealed bucket's.

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

// RingState is the engine's ring-eviction state as a value: the eviction
// pointer's position, the flush phase (accesses since the last scheduled
// flush), and the dead-slot masks in bucket order. A durable checkpoint
// carries it per member; the checkpoint codec states its bytes.
type RingState struct {
	Counter uint64
	Phase   int
	Dead    []DeadSlots // strictly increasing Bucket, nonzero Mask
}

// DeadSlots is one bucket's dead-slot mask (see RingInvalidSlots).
type DeadSlots struct{ Bucket, Mask uint64 }

// RingState returns the engine's ring-eviction state (nil in path mode).
func (e *Engine) RingState() *RingState {
	if e.ringA == 0 {
		return nil
	}
	st := &RingState{Counter: e.ringCounter, Phase: int(e.ringSince)}
	for idx, mask := range e.ringInvalid { // every stored mask is nonzero
		st.Dead = append(st.Dead, DeadSlots{idx, mask})
	}
	sort.Slice(st.Dead, func(i, j int) bool { return st.Dead[i].Bucket < st.Dead[j].Bucket })
	return st
}

// RestoreRingState replaces the engine's ring-eviction state with st (nil
// for a path-mode engine). It fails closed: a state for the other mode, a
// phase at or past the flush interval, or a dead-slot list that leaves the
// geometry or bucket shape or is not in canonical form (strictly increasing
// buckets, nonzero masks) leaves the current state untouched.
func (e *Engine) RestoreRingState(st *RingState) error {
	switch {
	case st == nil && e.ringA == 0:
		return nil
	case st == nil:
		return fmt.Errorf("oram: ring-mode engine restored without ring state")
	case e.ringA == 0:
		return fmt.Errorf("oram: ring state restored into a path-mode engine")
	case st.Phase < 0 || st.Phase >= e.ringA:
		return fmt.Errorf("oram: ring state phase %d outside flush interval %d", st.Phase, e.ringA)
	}
	for i, d := range st.Dead {
		switch {
		case d.Bucket >= e.geom.Buckets():
			return fmt.Errorf("oram: ring state bucket %d out of range", d.Bucket)
		case d.Mask == 0 || d.Mask>>uint(e.store.Z()) != 0:
			return fmt.Errorf("oram: ring state mask %#x empty or beyond Z=%d slots", d.Mask, e.store.Z())
		case i > 0 && d.Bucket <= st.Dead[i-1].Bucket:
			return fmt.Errorf("oram: ring state buckets not strictly increasing at entry %d", i)
		}
	}
	e.ringCounter = st.Counter
	e.ringSince = uint32(st.Phase)
	clear(e.ringInvalid)
	for _, d := range st.Dead {
		e.ringInvalid[d.Bucket] = d.Mask
	}
	return nil
}
