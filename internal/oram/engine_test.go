package oram

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sdimm/internal/rng"
)

func newTestEngine(t *testing.T, levels int, functional bool) (*Engine, Store) {
	t.Helper()
	g := MustGeometry(levels)
	var store Store
	if functional {
		ms, err := NewMemStore(4, 64, []byte("test-key"))
		if err != nil {
			t.Fatal(err)
		}
		store = ms
	} else {
		store = NewSparseStore(4)
	}
	e, err := NewEngine(store, NewSparsePosMap(), Options{
		Geometry:       g,
		StashCapacity:  200,
		EvictThreshold: 150,
		Rand:           rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

func TestNewEngineValidation(t *testing.T) {
	g := MustGeometry(4)
	r := rng.New(1)
	ok := Options{Geometry: g, StashCapacity: 10, EvictThreshold: 5, Rand: r}
	if _, err := NewEngine(nil, nil, ok); err == nil {
		t.Error("nil store accepted")
	}
	store := NewSparseStore(4)
	bad := []Options{
		{StashCapacity: 10, EvictThreshold: 5, Rand: r},               // zero geometry
		{Geometry: g, EvictThreshold: 5, Rand: r},                     // zero stash
		{Geometry: g, StashCapacity: 10, Rand: r},                     // zero threshold
		{Geometry: g, StashCapacity: 10, EvictThreshold: 20, Rand: r}, // threshold > capacity
		{Geometry: g, StashCapacity: 10, EvictThreshold: 5},           // nil rand
	}
	for i, o := range bad {
		if _, err := NewEngine(store, nil, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	e, _ := newTestEngine(t, 8, true)
	payload := func(i int) []byte {
		b := make([]byte, 64)
		copy(b, fmt.Sprintf("block-%d", i))
		return b
	}
	for i := 0; i < 50; i++ {
		if _, _, err := e.Access(uint64(i), OpWrite, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		got, _, err := e.Access(uint64(i), OpRead, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("read %d = %q, want %q", i, got[:16], payload(i)[:16])
		}
	}
}

func TestFirstTouchReadReturnsZeros(t *testing.T) {
	e, _ := newTestEngine(t, 6, true)
	got, plan, err := e.Access(99, OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Found {
		t.Fatal("first touch reported Found")
	}
	if len(got) != 64 || !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("first-touch read = %v", got[:8])
	}
}

func TestOverwrite(t *testing.T) {
	e, _ := newTestEngine(t, 6, true)
	a := bytes.Repeat([]byte{1}, 64)
	b := bytes.Repeat([]byte{2}, 64)
	e.Access(7, OpWrite, a)
	e.Access(7, OpWrite, b)
	got, _, err := e.Access(7, OpRead, nil)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("overwrite lost: %v %v", err, got[:4])
	}
}

func TestPlanPathMatchesOldLeaf(t *testing.T) {
	e, _ := newTestEngine(t, 8, false)
	e.Access(1, OpWrite, nil)
	// Second access must read the path of the leaf assigned on the first.
	leaf, ok := e.PositionOf(1)
	if !ok {
		t.Fatal("posmap not updated")
	}
	_, plan, err := e.Access(1, OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OldLeaf != leaf {
		t.Fatalf("accessed leaf %d, posmap said %d", plan.OldLeaf, leaf)
	}
	want := e.Geometry().Path(leaf, nil)
	for i := range want {
		if plan.Path[i] != want[i] {
			t.Fatalf("plan path %v != geometric path %v", plan.Path, want)
		}
	}
}

func TestLeafRemappedEveryAccess(t *testing.T) {
	e, _ := newTestEngine(t, 16, false)
	e.Access(1, OpWrite, nil)
	changed := 0
	prev, _ := e.PositionOf(1)
	for i := 0; i < 32; i++ {
		e.Access(1, OpRead, nil)
		cur, _ := e.PositionOf(1)
		if cur != prev {
			changed++
		}
		prev = cur
	}
	// With 2^15 leaves, essentially every remap changes the leaf.
	if changed < 30 {
		t.Fatalf("leaf changed only %d/32 times", changed)
	}
}

// treeInvariant checks that every mapped block is either in the stash or
// in a bucket on the path to its mapped leaf.
func treeInvariant(t *testing.T, e *Engine, store *SparseStore, addrs []uint64) {
	t.Helper()
	for _, a := range addrs {
		leaf, ok := e.PositionOf(a)
		if !ok {
			continue
		}
		if _, inStash := e.StashGet(a); inStash {
			continue
		}
		found := false
		for _, idx := range e.Geometry().Path(leaf, nil) {
			b, err := store.ReadBucket(idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range b.Slots {
				if s.Addr == a {
					if s.Leaf != leaf {
						t.Fatalf("block %d stored with leaf %d, mapped to %d", a, s.Leaf, leaf)
					}
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("block %d neither in stash nor on path of leaf %d", a, leaf)
		}
	}
}

func TestPathInvariantHoldsUnderLoad(t *testing.T) {
	e, st := newTestEngine(t, 10, false)
	store := st.(*SparseStore)
	r := rng.New(7)
	var addrs []uint64
	seen := map[uint64]bool{}
	for i := 0; i < 600; i++ {
		a := r.Uint64n(100)
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
		op := OpRead
		if r.Bool(0.5) {
			op = OpWrite
		}
		if _, _, err := e.Access(a, op, nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	treeInvariant(t, e, store, addrs)
}

func TestNoDuplicateBlocks(t *testing.T) {
	e, st := newTestEngine(t, 9, false)
	store := st.(*SparseStore)
	r := rng.New(11)
	for i := 0; i < 500; i++ {
		e.Access(r.Uint64n(60), OpWrite, nil)
	}
	// Scan the entire materialized tree: every address at most once, and
	// not simultaneously in the stash.
	count := map[uint64]int{}
	for idx := uint64(0); idx < e.Geometry().Buckets(); idx++ {
		b, _ := store.ReadBucket(idx)
		for _, s := range b.Slots {
			if !s.IsDummy() {
				count[s.Addr]++
			}
		}
	}
	for a, n := range count {
		if n > 1 {
			t.Fatalf("block %d appears %d times in tree", a, n)
		}
		if _, inStash := e.StashGet(a); inStash {
			t.Fatalf("block %d in both tree and stash", a)
		}
	}
}

func TestStashBounded(t *testing.T) {
	e, _ := newTestEngine(t, 12, false)
	r := rng.New(13)
	for i := 0; i < 3000; i++ {
		if _, _, err := e.Access(r.Uint64n(1000), OpWrite, nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	if peak := e.Stats().StashPeak; peak > 200 {
		t.Fatalf("stash peak %d exceeded capacity", peak)
	}
	// With Z=4 the stash should in fact stay far below the threshold.
	if e.StashLen() > 150 {
		t.Fatalf("stash settled at %d", e.StashLen())
	}
}

func TestAccessRequiresPosMap(t *testing.T) {
	g := MustGeometry(4)
	e, err := NewEngine(NewSparseStore(4), nil, Options{
		Geometry: g, StashCapacity: 10, EvictThreshold: 5, Rand: rng.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Access(1, OpRead, nil); err == nil {
		t.Fatal("Access without posmap succeeded")
	}
}

func TestReadWritePathPairing(t *testing.T) {
	e, _ := newTestEngine(t, 6, false)
	if _, err := e.readPath(3, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.readPath(4, false, 0); err == nil {
		t.Fatal("second readPath while pending accepted")
	}
	if err := e.writePath(4); err == nil {
		t.Fatal("writePath on wrong leaf accepted")
	}
	if err := e.writePath(3); err != nil {
		t.Fatal(err)
	}
	if err := e.writePath(3); err == nil {
		t.Fatal("writePath without pending read accepted")
	}
}

func TestReadPathRejectsBadLeaf(t *testing.T) {
	e, _ := newTestEngine(t, 6, false)
	if _, err := e.readPath(1<<40, false, 0); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
}

func TestAccessAtMigrationRemovesBlock(t *testing.T) {
	e, st := newTestEngine(t, 8, false)
	store := st.(*SparseStore)
	// Install a block via the posmap-driven path.
	e.Access(5, OpWrite, nil)
	leaf, _ := e.PositionOf(5)
	// Migrate it out: it must appear nowhere in this engine afterwards.
	blk, plan, err := e.AccessAt(5, OpRead, nil, leaf, 12345, false)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Found {
		t.Fatal("migration did not find block")
	}
	if blk.Addr != 5 || blk.Leaf != 12345 {
		t.Fatalf("migrated block = %+v", blk)
	}
	if _, ok := e.StashGet(5); ok {
		t.Fatal("migrated block still in stash")
	}
	for idx := uint64(0); idx < e.Geometry().Buckets(); idx++ {
		b, _ := store.ReadBucket(idx)
		for _, s := range b.Slots {
			if s.Addr == 5 {
				t.Fatalf("migrated block still in bucket %d", idx)
			}
		}
	}
}

func TestAccessAtKeepUpdatesLeaf(t *testing.T) {
	e, _ := newTestEngine(t, 8, false)
	e.Access(9, OpWrite, nil)
	leaf, _ := e.PositionOf(9)
	newLeaf := (leaf + 1) % e.Geometry().Leaves()
	blk, _, err := e.AccessAt(9, OpWrite, nil, leaf, newLeaf, true)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Leaf != newLeaf {
		t.Fatalf("kept block leaf %d, want %d", blk.Leaf, newLeaf)
	}
}

func TestStashInsertAndRemove(t *testing.T) {
	e, _ := newTestEngine(t, 6, false)
	if err := e.StashInsert(Block{Addr: 42, Leaf: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.StashInsert(Block{Addr: 43, Leaf: 1 << 40}); err == nil {
		t.Fatal("out-of-range leaf accepted by StashInsert")
	}
	b, ok := e.StashRemove(42)
	if !ok || b.Leaf != 3 {
		t.Fatalf("StashRemove = %+v %v", b, ok)
	}
	if _, ok := e.StashRemove(42); ok {
		t.Fatal("double remove succeeded")
	}
}

// TestStashInsertRecordsPeak: the block StashInsert adds counts toward the
// stash peak — the check runs after the insert, not before it.
func TestStashInsertRecordsPeak(t *testing.T) {
	e, _ := newTestEngine(t, 6, false)
	if err := e.StashInsert(Block{Addr: 42, Leaf: 3}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().StashPeak; got != 1 {
		t.Fatalf("StashPeak after one insert into an empty engine = %d, want 1", got)
	}
}

func TestBackgroundEvictionDrains(t *testing.T) {
	g := MustGeometry(8)
	e, err := NewEngine(NewSparseStore(4), NewSparsePosMap(), Options{
		Geometry:       g,
		StashCapacity:  128,
		EvictThreshold: 8,
		Rand:           rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pump blocks straight into the stash (as APPENDs would), then run a
	// normal access: one greedy writeback cannot place them all, so
	// DrainStash must kick in.
	for i := 0; i < 60; i++ {
		if err := e.StashInsert(Block{Addr: uint64(1000 + i), Leaf: e.RandomLeaf()}); err != nil {
			t.Fatal(err)
		}
	}
	_, plan, err := e.Access(1, OpWrite, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BackgroundEvicts == 0 {
		t.Fatal("no background evictions despite hot stash")
	}
	if e.Stats().BackgroundEvicts == 0 {
		t.Fatal("stats did not record background evictions")
	}
}

func TestIntegrityFailureSurfaces(t *testing.T) {
	e, st := newTestEngine(t, 6, true)
	ms := st.(*MemStore)
	if _, _, err := e.Access(1, OpWrite, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the block's whole path so the next access necessarily hits it.
	leaf, _ := e.PositionOf(1)
	for _, idx := range e.Geometry().Path(leaf, nil) {
		ms.Corrupt(idx)
	}
	_, _, err := e.Access(1, OpRead, nil)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted bucket read: %v", err)
	}
}

func TestSparseStoreFootprintGrowsWithTouch(t *testing.T) {
	e, st := newTestEngine(t, 20, false)
	store := st.(*SparseStore)
	for i := 0; i < 10; i++ {
		e.Access(uint64(i), OpWrite, nil)
	}
	// 10 accesses touch at most 10 paths of 20 buckets.
	if m := store.Materialized(); m > 10*20 {
		t.Fatalf("materialized %d buckets for 10 accesses", m)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint64 {
		g := MustGeometry(10)
		e, _ := NewEngine(NewSparseStore(4), NewSparsePosMap(), Options{
			Geometry: g, StashCapacity: 100, EvictThreshold: 80, Rand: rng.New(99),
		})
		var leaves []uint64
		for i := 0; i < 100; i++ {
			_, plan, err := e.Access(uint64(i%17), OpWrite, nil)
			if err != nil {
				panic(err)
			}
			leaves = append(leaves, plan.OldLeaf, plan.NewLeaf)
		}
		return leaves
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
