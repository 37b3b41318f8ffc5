package oram

import (
	"fmt"
	"slices"
)

// Stash holds blocks that have been read off their paths and not yet
// written back. Path ORAM's security argument requires only that its
// occupancy stays small; overflow is a hard error surfaced to the caller
// (the paper sizes it at ~200 entries and shows overflow probability is
// negligible for Z >= 4 with background eviction).
//
// The blocks are kept sorted by address, which is the order the greedy
// writeback selects in: Engine.WritePath walks the slice itself.
type Stash struct {
	capacity int
	blocks   []Block // ascending by Addr, one entry per address
}

// NewStash builds a stash with the given capacity.
func NewStash(capacity int) *Stash {
	return &Stash{capacity: capacity}
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// Capacity returns the configured limit.
func (s *Stash) Capacity() int { return s.capacity }

// ErrStashOverflow is wrapped by Put when capacity would be exceeded.
var ErrStashOverflow = fmt.Errorf("oram: stash overflow")

// find returns the position of addr in blocks, or the position it would be
// inserted at. It runs some fifty times per access, where the comparator call
// of slices.BinarySearchFunc costs half as much again.
func (s *Stash) find(addr uint64) (int, bool) {
	lo, hi := 0, len(s.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.blocks[mid].Addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.blocks) && s.blocks[lo].Addr == addr
}

// Put inserts or replaces a block. Inserting a new block into a full stash
// fails with ErrStashOverflow; replacing an existing address never fails.
func (s *Stash) Put(b Block) error {
	if b.IsDummy() {
		return fmt.Errorf("oram: dummy block inserted into stash")
	}
	i, ok := s.find(b.Addr)
	if ok {
		s.blocks[i] = b
		return nil
	}
	if len(s.blocks) >= s.capacity {
		return fmt.Errorf("%w: capacity %d", ErrStashOverflow, s.capacity)
	}
	s.blocks = slices.Insert(s.blocks, i, b)
	return nil
}

// Get returns the block for addr without removing it.
func (s *Stash) Get(addr uint64) (Block, bool) {
	if i, ok := s.find(addr); ok {
		return s.blocks[i], true
	}
	return Block{}, false
}

// Remove deletes and returns the block for addr.
func (s *Stash) Remove(addr uint64) (Block, bool) {
	i, ok := s.find(addr)
	if !ok {
		return Block{}, false
	}
	b := s.blocks[i]
	// slices.Delete zeroes the vacated tail slot, so the backing array does
	// not keep the removed payload reachable.
	s.blocks = slices.Delete(s.blocks, i, i+1)
	return b, true
}

// Range calls fn for every block, in ascending address order, until fn
// returns false. fn must not modify the stash.
func (s *Stash) Range(fn func(Block) bool) {
	for _, b := range s.blocks {
		if !fn(b) {
			return
		}
	}
}
