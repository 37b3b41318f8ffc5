package telemetry

import (
	"reflect"
	"testing"
)

// TestHistogramMergeAndDump: merging one histogram into another leaves the
// same histogram, compared whole, as adding every sample to one.
func TestHistogramMergeAndDump(t *testing.T) {
	var a, b, want Histogram
	for _, v := range []uint64{1, 11, 39, 100} {
		a.Add(v)
	}
	for _, v := range []uint64{5, 25, 200} {
		b.Add(v)
	}
	a.Merge(&b)
	for _, v := range []uint64{1, 11, 39, 100, 5, 25, 200} {
		want.Add(v)
	}
	if a != want {
		t.Fatal("merged histogram differs from adding every sample")
	}
	if a.N() != 7 || a.Max() != 200 {
		t.Fatalf("n=%d max=%d after merge", a.N(), a.Max())
	}
}

func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("c").Add(3)
	dst.Gauge("g").Set(1)
	dst.Histogram("h").Add(15)

	src := NewRegistry()
	src.Counter("c").Add(4)
	src.Counter("only-src").Inc()
	src.Gauge("g").Set(9)
	src.Histogram("h").Add(25)

	dst.Merge(src)

	if v := dst.Counter("c").Value(); v != 7 {
		t.Errorf("counter c = %d, want 7", v)
	}
	if v := dst.Counter("only-src").Value(); v != 1 {
		t.Errorf("counter only-src = %d, want 1", v)
	}
	if v := dst.Gauge("g").Value(); v != 9 {
		t.Errorf("gauge g = %d, want 9 (src wins)", v)
	}
	h := dst.Histogram("h")
	if h.N() != 2 || h.Sum() != 40 {
		t.Errorf("hist h: n=%d sum=%d", h.N(), h.Sum())
	}

	// Merging nil or into nil must be a safe no-op.
	dst.Merge(nil)
	(*Registry)(nil).Merge(src)
}

// TestRegistryMergeDeterministic proves the property the parallel campaign
// runner depends on: merging the same per-shard registries in the same
// order yields bit-identical snapshots, regardless of how the shards were
// populated concurrently.
func TestRegistryMergeDeterministic(t *testing.T) {
	build := func() []*Registry {
		var shards []*Registry
		for i := 0; i < 5; i++ {
			r := NewRegistry()
			r.Counter("c").Add(uint64(i * 3))
			r.Gauge("last").Set(int64(i))
			r.Histogram("h").Add(uint64(i * 7))
			shards = append(shards, r)
		}
		return shards
	}
	agg := func(shards []*Registry) Snapshot {
		a := NewRegistry()
		for _, s := range shards {
			a.Merge(s)
		}
		return a.Snapshot()
	}
	s1 := agg(build())
	s2 := agg(build())
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("merge not deterministic:\n%v\nvs\n%v", s1, s2)
	}
	if s1.Gauges["last"] != 4 {
		t.Fatalf("gauge merge order broken: %d", s1.Gauges["last"])
	}
}

// TestRegistryMergeOrderIndependent: merging the same shard registries in
// different orders, or pairwise through intermediates, must produce
// bitwise-identical counters and histograms.
func TestRegistryMergeOrderIndependent(t *testing.T) {
	build := func() []*Registry {
		var shards []*Registry
		for i := 0; i < 4; i++ {
			r := NewRegistry()
			r.Counter("c").Add(uint64(i + 1))
			r.Histogram("h").Add(uint64(i * 3))
			r.Histogram("h").Add(uint64(100 + i))
			shards = append(shards, r)
		}
		return shards
	}
	agg := func(order []int) Snapshot {
		shards := build()
		a := NewRegistry()
		for _, i := range order {
			a.Merge(shards[i])
		}
		return a.Snapshot()
	}
	base := agg([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		got := agg(order)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("merge order %v disagrees with ascending order:\n%v\nvs\n%v", order, got, base)
		}
	}
	// Associativity: merging shards pairwise through intermediates must
	// match the flat fold bitwise.
	shards := build()
	left, right := NewRegistry(), NewRegistry()
	left.Merge(shards[0])
	left.Merge(shards[1])
	right.Merge(shards[2])
	right.Merge(shards[3])
	tree := NewRegistry()
	tree.Merge(left)
	tree.Merge(right)
	if got := tree.Snapshot(); !reflect.DeepEqual(got, base) {
		t.Fatalf("pairwise merge disagrees with flat merge:\n%v\nvs\n%v", got, base)
	}
}
