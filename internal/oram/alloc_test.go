package oram

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sdimm/internal/raceflag"
)

// TestAccessZeroAlloc is the allocation gate for the engine hot path, in
// both modes: once the scratch buffers, free list, position map, stash and
// (ring mode) dead-slot map have grown to their steady-state sizes, a full
// accessORAM — path read, remap, writeback or scheduled flush, background
// eviction — must not touch the heap.
func TestAccessZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	for _, mode := range []struct {
		name string
		new  func(*testing.T) *Engine
	}{
		{"path", func(t *testing.T) *Engine { e, _ := newTestEngine(t, 8, true); return e }},
		{"ring-a4", func(t *testing.T) *Engine { e, _ := newRingEngine(t, 8, 4); return e }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := mode.new(t)
			buf := make([]byte, 64)
			const addrs = 32
			// Warm-up: first touches grow the position map, the stash, the
			// engine scratch, and the payload free list.
			for i := 0; i < 400; i++ {
				if _, _, err := e.Access(uint64(i%addrs), OpWrite, buf); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				op := OpRead
				if i%2 == 0 {
					op = OpWrite
				}
				if _, _, err := e.Access(uint64(i%addrs), op, buf); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("Engine.Access allocates %.1f objects per op in steady state, want 0", allocs)
			}
		})
	}
}

// TestMemStoreOpenSealZeroAlloc is the store's own gate under the engine's:
// once a bucket has its arena slot, opening it (verify + decrypt into the
// caller's bucket) and resealing it in place must not touch the heap, for a
// tree-range index and for one past the dense index alike.
func TestMemStoreOpenSealZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	s, err := NewMemStore(4, 64, []byte("alloc-gate"))
	if err != nil {
		t.Fatal(err)
	}
	full := NewBucket(4)
	for i := range full.Slots {
		full.Slots[i] = Block{Addr: uint64(i), Leaf: 1, Data: make([]byte, 64)}
	}
	idxs := []uint64{0, 12345, 1 << 40}
	for _, idx := range idxs {
		if err := s.WriteBucket(idx, full); err != nil {
			t.Fatal(err)
		}
	}
	var b Bucket
	if err := s.ReadBucketInto(0, &b); err != nil { // sizes b.Slots once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, idx := range idxs {
			if err := s.ReadBucketInto(idx, &b); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteBucket(idx, full); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("MemStore open+seal allocates %.1f objects per round in steady state, want 0", allocs)
	}
}

// TestRestoreStashRejectsCorruptSnapshot is the regression test for the
// checkpoint-restore validation gap: RestoreStash must apply the same
// leaf-range check StashInsert does, so a hand-corrupted snapshot fails
// closed and leaves the live stash untouched.
func TestRestoreStashRejectsCorruptSnapshot(t *testing.T) {
	e, _ := newTestEngine(t, 6, true)
	payload := bytes.Repeat([]byte{0xAB}, 64)
	leaves := e.Geometry().Leaves()
	for a := uint64(0); a < 5; a++ {
		if err := e.StashInsert(Block{Addr: a, Leaf: a % leaves, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	before := e.StashBlocks()

	// An out-of-range leaf (valid leaves are [0, Leaves)) must be rejected.
	snap := e.StashBlocks()
	snap[2].Leaf = leaves
	if err := e.RestoreStash(snap); err == nil {
		t.Fatal("RestoreStash accepted a snapshot with an out-of-range leaf")
	}

	// A dummy slot smuggled into the snapshot must be rejected too.
	snap = e.StashBlocks()
	snap[0].Addr = DummyAddr
	if err := e.RestoreStash(snap); err == nil {
		t.Fatal("RestoreStash accepted a snapshot containing a dummy block")
	}

	// A snapshot larger than the stash can hold must fail with
	// ErrStashOverflow before any block is admitted.
	big := make([]Block, e.stash.Capacity()+1)
	for i := range big {
		big[i] = Block{Addr: uint64(i), Leaf: uint64(i) % leaves, Data: payload}
	}
	if err := e.RestoreStash(big); !errors.Is(err, ErrStashOverflow) {
		t.Fatalf("oversized snapshot: got %v, want ErrStashOverflow", err)
	}

	// Fail closed: every rejection above left the original stash intact.
	if got := e.StashBlocks(); !reflect.DeepEqual(got, before) {
		t.Fatalf("stash disturbed by rejected restore:\n%+v\nwant\n%+v", got, before)
	}

	// The corrected snapshot still restores cleanly.
	if err := e.RestoreStash(before); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if got := e.StashBlocks(); !reflect.DeepEqual(got, before) {
		t.Fatalf("restored stash differs from snapshot:\n%+v\nwant\n%+v", got, before)
	}
}
