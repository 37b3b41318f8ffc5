// Package cache provides the set-associative LRU cache used for both the
// last-level cache (2 MB/8-way in the paper's Table II) and the PosMap
// Lookaside Buffer of Freecursive ORAM. Keys are line/block identifiers;
// the caller chooses the granularity.
package cache

import "fmt"

type line struct {
	key   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Result describes the outcome of an Access.
type Result struct {
	Hit bool
	// Evicted is set when a valid line was displaced; Victim is its key and
	// VictimDirty its dirty state (the LLC turns dirty victims into memory
	// writebacks).
	Evicted     bool
	Victim      uint64
	VictimDirty bool
}

// Cache is a set-associative LRU cache. Not safe for concurrent use.
type Cache struct {
	sets  [][]line
	clock uint64
	mask  uint64
}

// New builds a cache with totalLines entries and the given associativity.
// totalLines must be a positive multiple of ways with a power-of-two set
// count.
func New(totalLines, ways int) (*Cache, error) {
	if totalLines <= 0 || ways <= 0 || totalLines%ways != 0 {
		return nil, fmt.Errorf("cache: %d lines / %d ways invalid", totalLines, ways)
	}
	nsets := totalLines / ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets not a power of two", nsets)
	}
	sets := make([][]line, nsets)
	backing := make([]line, totalLines)
	for i := range sets {
		sets[i], backing = backing[:ways], backing[ways:]
	}
	return &Cache{sets: sets, mask: uint64(nsets - 1)}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(totalLines, ways int) *Cache {
	c, err := New(totalLines, ways)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) set(key uint64) []line {
	return c.sets[key&c.mask]
}

// Access looks up key, inserting it on miss (allocate-on-miss for both
// reads and writes). write marks the line dirty.
func (c *Cache) Access(key uint64, write bool) Result {
	c.clock++
	s := c.set(key)
	for i := range s {
		if s[i].valid && s[i].key == key {
			s[i].used = c.clock
			if write {
				s[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	// Choose victim: an invalid way, else LRU.
	vi := 0
	for i := range s {
		if !s[i].valid {
			vi = i
			break
		}
		if s[i].used < s[vi].used {
			vi = i
		}
	}
	res := Result{}
	if s[vi].valid {
		res.Evicted = true
		res.Victim = s[vi].key
		res.VictimDirty = s[vi].dirty
	}
	s[vi] = line{key: key, valid: true, dirty: write, used: c.clock}
	return res
}

// Contains reports whether key is cached, without touching LRU state.
func (c *Cache) Contains(key uint64) bool {
	for _, l := range c.set(key) {
		if l.valid && l.key == key {
			return true
		}
	}
	return false
}
