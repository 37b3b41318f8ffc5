// Package oram implements the Path ORAM primitive the whole system is
// built on (Stefanov et al., adapted as in Freecursive ORAM): a balanced
// binary tree of Z-slot buckets, a position map, a stash, greedy path
// eviction and background eviction. The same engine runs in two modes:
//
//   - functional: buckets hold real encrypted, authenticated payloads
//     (MemStore); reads return the bytes written — this is the mode library
//     users and the examples exercise;
//   - sparse/timing: buckets hold placement metadata only (SparseStore), so
//     paper-scale trees (2^28 buckets) fit in simulator memory.
//
// Package oram also provides the physical memory layout used by the paper:
// subtree packing for row-buffer locality [Ren et al.] and the
// rank-per-subtree low-power layout of Section III-E.
package oram

import (
	"fmt"
	"math/bits"
)

// Geometry captures the shape of a Path ORAM tree: Levels tree levels with
// the root at level 0 and leaves at level Levels-1.
type Geometry struct {
	Levels int
}

// NewGeometry validates and builds a geometry. Levels must be in [1, 48]
// (2^48 buckets is far beyond any simulated configuration).
func NewGeometry(levels int) (Geometry, error) {
	if levels < 1 || levels > 48 {
		return Geometry{}, fmt.Errorf("oram: levels %d out of [1, 48]", levels)
	}
	return Geometry{Levels: levels}, nil
}

// MustGeometry is NewGeometry for static configurations; it panics on error.
func MustGeometry(levels int) Geometry {
	g, err := NewGeometry(levels)
	if err != nil {
		panic(err)
	}
	return g
}

// Leaves returns the number of leaves (and distinct paths).
func (g Geometry) Leaves() uint64 { return 1 << (g.Levels - 1) }

// Buckets returns the total number of buckets in the tree.
func (g Geometry) Buckets() uint64 { return 1<<g.Levels - 1 }

// LevelOf returns the level of a bucket index (heap order: root 0,
// children of i at 2i+1 and 2i+2).
func (g Geometry) LevelOf(bucket uint64) int {
	return bits.Len64(bucket+1) - 1
}

// BucketAt returns the bucket index at the given level on the path to leaf.
func (g Geometry) BucketAt(leaf uint64, level int) uint64 {
	if level < 0 || level >= g.Levels {
		panic(fmt.Sprintf("oram: level %d out of range", level))
	}
	prefix := leaf >> uint(g.Levels-1-level)
	return (1 << uint(level)) - 1 + prefix
}

// Path fills buckets with the indices of the path from the root to leaf
// and returns it; buckets must have length Levels (pass nil to allocate).
func (g Geometry) Path(leaf uint64, buckets []uint64) []uint64 {
	if buckets == nil {
		buckets = make([]uint64, g.Levels)
	}
	for lvl := 0; lvl < g.Levels; lvl++ {
		buckets[lvl] = g.BucketAt(leaf, lvl)
	}
	return buckets
}

// CommonDepth returns the deepest level at which the paths to two leaves
// share a bucket (0 = only the root is shared).
func (g Geometry) CommonDepth(a, b uint64) int {
	return g.Levels - 1 - bits.Len64(a^b)
}

// ValidLeaf reports whether leaf is in range.
func (g Geometry) ValidLeaf(leaf uint64) bool { return leaf < g.Leaves() }

// CapacityBlocks returns the number of real blocks a tree with Z-slot
// buckets can hold at the standard 50% utilization target (half of all
// slots), which is how the paper sizes a 32 GB ORAM at 28 levels.
func (g Geometry) CapacityBlocks(z int) uint64 {
	return g.Buckets() * uint64(z) / 2
}
