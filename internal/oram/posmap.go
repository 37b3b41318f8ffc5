package oram

// PositionMap associates each block address with the leaf whose path must
// contain the block. SparsePosMap is not safe for concurrent use — the
// discrete-event simulator is single-threaded by construction, and only a
// cluster's coordinator touches the cluster's map.
type PositionMap interface {
	// Get returns the leaf for addr and whether the address has ever been
	// mapped.
	Get(addr uint64) (leaf uint64, ok bool)
	// Set maps addr to leaf.
	Set(addr uint64, leaf uint64)
	// Len returns the number of mapped addresses.
	Len() int
	// Each calls fn for every mapped address, in unspecified order. The
	// determinism-equivalence harness uses it to compare final position
	// maps across engines.
	Each(fn func(addr, leaf uint64))
}

// SparsePosMap is a map-backed position map: memory grows with the touched
// working set, so paper-scale address spaces (2^29 blocks) are cheap as
// long as the trace touches a bounded set. Untouched blocks are
// indistinguishable from never-inserted blocks, which is the standard
// ORAM-simulation treatment.
type SparsePosMap struct {
	m map[uint64]uint64
}

// NewSparsePosMap builds an empty sparse map.
func NewSparsePosMap() *SparsePosMap {
	return &SparsePosMap{m: make(map[uint64]uint64)}
}

// Get implements PositionMap.
func (m *SparsePosMap) Get(addr uint64) (uint64, bool) {
	l, ok := m.m[addr]
	return l, ok
}

// Set implements PositionMap.
func (m *SparsePosMap) Set(addr uint64, leaf uint64) { m.m[addr] = leaf }

// Len implements PositionMap.
func (m *SparsePosMap) Len() int { return len(m.m) }

// Each implements PositionMap.
func (m *SparsePosMap) Each(fn func(addr, leaf uint64)) {
	for a, l := range m.m {
		fn(a, l)
	}
}
