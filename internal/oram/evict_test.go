package oram

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"sdimm/internal/rng"
)

// commonDepthLoop and levelOfLoop are Geometry.CommonDepth and LevelOf as
// they were written before math/bits: the references the closed forms and
// the eviction reference below are checked against.
func commonDepthLoop(g Geometry, a, b uint64) int {
	x := a ^ b
	d := g.Levels - 1
	for x != 0 {
		x >>= 1
		d--
	}
	return d
}

func levelOfLoop(bucket uint64) int {
	lvl := 0
	for n := bucket + 1; n > 1; n >>= 1 {
		lvl++
	}
	return lvl
}

// referenceWritePath is the greedy selection Engine.WritePath made when the
// stash was a Go map: copy the stash out, sort the copy by address, and for
// each level from the leaf up scan it for unplaced blocks whose leaf keeps
// them on the path, remembering placements in a map. It returns the slots of
// each bucket in the order written (deepest first) and the blocks left over.
func referenceWritePath(g Geometry, stash []Block, leaf uint64, z, fill int) (written [][]Block, residual []Block) {
	cands := slices.Clone(stash)
	slices.SortFunc(cands, func(a, b Block) int { return cmp.Compare(a.Addr, b.Addr) })
	placed := make(map[uint64]bool)
	for lvl := g.Levels - 1; lvl >= 0; lvl-- {
		slots := NewBucket(z).Slots
		n := 0
		for _, b := range cands {
			if n == fill {
				break
			}
			if placed[b.Addr] {
				continue
			}
			if commonDepthLoop(g, b.Leaf, leaf) >= lvl {
				slots[n] = b
				n++
				placed[b.Addr] = true
			}
		}
		written = append(written, slots)
	}
	for _, b := range cands {
		if !placed[b.Addr] {
			residual = append(residual, b)
		}
	}
	return written, residual
}

// captureStore is an always-empty tree that records every bucket written to
// it, payloads copied, in order.
type captureStore struct {
	z      int
	idxs   []uint64
	writes [][]Block
}

func (s *captureStore) Z() int { return s.z }

func (s *captureStore) ReadBucket(uint64) (Bucket, error) { return NewBucket(s.z), nil }

func (s *captureStore) ReadBucketInto(_ uint64, b *Bucket) error {
	resetSlots(b, s.z)
	return nil
}

func (s *captureStore) WriteBucket(idx uint64, b Bucket) error {
	slots := slices.Clone(b.Slots)
	for i := range slots {
		slots[i].Data = bytes.Clone(slots[i].Data)
	}
	s.idxs = append(s.idxs, idx)
	s.writes = append(s.writes, slots)
	return nil
}

func sameBlocks(a, b []Block) bool {
	return slices.EqualFunc(a, b, func(x, y Block) bool {
		return x.Addr == y.Addr && x.Leaf == y.Leaf && bytes.Equal(x.Data, y.Data)
	})
}

// evictCase is one stash to write back: n blocks in an engine of the given
// shape, their leaves drawn around the written path from seed.
type evictCase struct {
	seed     uint64
	levels   int
	z        int
	ring     bool
	n        int  // stash occupancy, 0…evictCapacity
	sameLeaf bool // every block maps to the written leaf: eligible at every level
}

const evictCapacity = 64

// checkWritePath builds the case's stash, runs Engine.WritePath over it and
// compares every bucket written and the stash left behind with
// referenceWritePath.
func checkWritePath(t *testing.T, c evictCase) {
	t.Helper()
	g := MustGeometry(c.levels)
	store := &captureStore{z: c.z}
	opts := Options{
		Geometry:         g,
		StashCapacity:    evictCapacity,
		EvictThreshold:   evictCapacity,
		Rand:             rng.New(1),
		DisableAutoDrain: true,
	}
	if c.ring {
		opts.RingFlushInterval = 4
	}
	e, err := NewEngine(store, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	fill := c.z
	if c.ring {
		fill = c.z - e.ringReserved
	}

	// Leaves are drawn by depth, not uniformly, so that every level of the
	// path — the leaf bucket included — has candidates: a block of depth d
	// shares the path's first d edges and leaves it at the next.
	r := rng.New(c.seed)
	leaf := r.Uint64n(g.Leaves())
	var blocks []Block
	for i := 0; i < c.n; i++ {
		b := Block{Addr: r.Uint64n(4 * evictCapacity), Leaf: leaf, Data: []byte{byte(i), byte(c.seed)}}
		if slices.ContainsFunc(blocks, func(o Block) bool { return o.Addr == b.Addr }) {
			i--
			continue
		}
		if d := int(r.Uint64n(uint64(g.Levels))); !c.sameLeaf && d < g.Levels-1 {
			below := uint(g.Levels - 2 - d)
			b.Leaf = leaf ^ 1<<below ^ r.Uint64n(1<<below)
		}
		blocks = append(blocks, b)
	}
	for _, b := range blocks { // insertion order is the draw order, not address order
		if err := e.StashInsert(b); err != nil {
			t.Fatal(err)
		}
	}

	wantWrites, wantResidual := referenceWritePath(g, blocks, leaf, c.z, fill)
	if err := e.EvictPath(leaf); err != nil {
		t.Fatal(err)
	}
	if len(store.writes) != g.Levels {
		t.Fatalf("%+v: %d buckets written, want %d", c, len(store.writes), g.Levels)
	}
	for i, got := range store.writes {
		lvl := g.Levels - 1 - i
		if store.idxs[i] != g.BucketAt(leaf, lvl) {
			t.Fatalf("%+v: write %d went to bucket %d, want level %d of leaf %d", c, i, store.idxs[i], lvl, leaf)
		}
		if !sameBlocks(got, wantWrites[i]) {
			t.Fatalf("%+v: level %d holds %v, reference %v", c, lvl, got, wantWrites[i])
		}
	}
	if got := e.StashBlocks(); !sameBlocks(got, wantResidual) {
		t.Fatalf("%+v: stash left with %v, reference %v", c, got, wantResidual)
	}
	// The compaction must not leave the placed blocks' payloads reachable
	// from the stash's backing array.
	for i, b := range e.stash.blocks[len(e.stash.blocks):cap(e.stash.blocks)] {
		if b.Data != nil {
			t.Fatalf("%+v: vacated stash slot %d still holds a payload", c, len(e.stash.blocks)+i)
		}
	}
}

// TestWritePathMatchesReference proves the sort-free, map-free writeback
// places exactly what the sorted-copy selection placed: bucket for bucket
// and on the residual stash, over random stashes of 0…capacity blocks with
// every depth represented, in path mode and in ring mode (fill = Z −
// reserved), down to one-level trees and up to stashes with more eligible
// blocks than the whole path has slots.
func TestWritePathMatchesReference(t *testing.T) {
	r := rng.New(20)
	for _, z := range []int{2, 4, 5} {
		for _, ring := range []bool{false, true} {
			for _, levels := range []int{1, 2, 5, 9, 16} {
				for trial := 0; trial < 40; trial++ {
					checkWritePath(t, evictCase{
						seed: r.Uint64(), levels: levels, z: z, ring: ring,
						n: int(r.Uint64n(evictCapacity + 1)),
					})
				}
				// Oversubscribed at every level: the whole stash maps to
				// the written leaf and outnumbers the path's slots.
				if levels*z < evictCapacity {
					checkWritePath(t, evictCase{
						seed: r.Uint64(), levels: levels, z: z, ring: ring,
						n: evictCapacity, sameLeaf: true,
					})
				}
			}
		}
	}
}

// FuzzWritePath is the same comparison over fuzzer-chosen shapes.
func FuzzWritePath(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(4), false, uint8(31), false)
	f.Add(uint64(2), uint8(3), uint8(2), true, uint8(64), true)
	f.Add(uint64(3), uint8(0), uint8(5), true, uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, levels, z uint8, ring bool, n uint8, sameLeaf bool) {
		checkWritePath(t, evictCase{
			seed:     seed,
			levels:   int(levels%20) + 1,
			z:        []int{2, 4, 5}[z%3],
			ring:     ring,
			n:        int(n) % (evictCapacity + 1),
			sameLeaf: sameLeaf,
		})
	})
}

// TestCommonDepthLevelOfMatchLoops table-tests the math/bits forms of
// CommonDepth and LevelOf against their loop versions: every leaf pair and
// every bucket at Levels ≤ 10, and at Levels 48 random pairs spread over
// every depth plus the buckets at each level's edges.
func TestCommonDepthLevelOfMatchLoops(t *testing.T) {
	for levels := 1; levels <= 10; levels++ {
		g := MustGeometry(levels)
		for a := uint64(0); a < g.Leaves(); a++ {
			for b := uint64(0); b < g.Leaves(); b++ {
				if got, want := g.CommonDepth(a, b), commonDepthLoop(g, a, b); got != want {
					t.Fatalf("Levels %d: CommonDepth(%d, %d) = %d, loop %d", levels, a, b, got, want)
				}
			}
		}
		for idx := uint64(0); idx < g.Buckets(); idx++ {
			if got, want := g.LevelOf(idx), levelOfLoop(idx); got != want {
				t.Fatalf("Levels %d: LevelOf(%d) = %d, loop %d", levels, idx, got, want)
			}
		}
	}

	g := MustGeometry(48)
	r := rng.New(48)
	for i := 0; i < 200000; i++ {
		a := r.Uint64n(g.Leaves())
		// b differs from a only below a random bit, so every depth occurs
		// (uniform pairs would nearly always split at the root).
		b := a ^ r.Uint64n(g.Leaves())>>r.Uint64n(48)
		if got, want := g.CommonDepth(a, b), commonDepthLoop(g, a, b); got != want {
			t.Fatalf("Levels 48: CommonDepth(%d, %d) = %d, loop %d", a, b, got, want)
		}
		idx := r.Uint64n(g.Buckets())
		if got, want := g.LevelOf(idx), levelOfLoop(idx); got != want {
			t.Fatalf("Levels 48: LevelOf(%d) = %d, loop %d", idx, got, want)
		}
	}
	for lvl := 0; lvl < 48; lvl++ {
		first := uint64(1)<<lvl - 1
		for _, idx := range []uint64{first, 2 * first} { // a level's first and last bucket
			if got, want := g.LevelOf(idx), levelOfLoop(idx); got != want || got != lvl {
				t.Fatalf("Levels 48: LevelOf(%d) = %d, loop %d, level %d", idx, got, want, lvl)
			}
		}
	}
}
