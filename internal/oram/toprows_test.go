package oram

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"sdimm/internal/rng"
)

// newMem builds a Z = 4, 64-byte-block store under key.
func newMem(t *testing.T, key string) *MemStore {
	t.Helper()
	s, err := NewMemStore(4, 64, []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// noTop marks s as already set up with no rows, so an engine built over it
// seals every level into the arena: the reference the tree-top tests
// compare against.
func noTop(s *MemStore) *MemStore {
	s.rows = []row{}
	return s
}

// randomBucket draws a bucket of real and dummy slots, payloads of random
// length up to blockBytes.
func randomBucket(r *rng.Source, z, blockBytes int) Bucket {
	b := NewBucket(z)
	for i := range b.Slots {
		if r.Bool(0.4) {
			continue
		}
		data := make([]byte, r.Uint64n(uint64(blockBytes)+1))
		for j := range data {
			data[j] = byte(r.Uint64n(256))
		}
		b.Slots[i] = Block{Addr: r.Uint64n(1 << 20), Leaf: r.Uint64n(1 << 10), Data: data}
	}
	return b
}

// sameStores fails unless a and b answer alike for every index below n:
// RawBucket bytes and presence, Counter and, when read is set, ReadBucket's
// bucket or its integrity error, and the indices BucketIndices lists.
// Reading opens a sealed row for good, so the caller decides when.
func sameStores(t *testing.T, step int, a, b *MemStore, n uint64, read bool) {
	t.Helper()
	for idx := uint64(0); idx < n; idx++ {
		ra, oka := a.RawBucket(idx)
		rb, okb := b.RawBucket(idx)
		if oka != okb || !bytes.Equal(ra, rb) {
			t.Fatalf("step %d: bucket %d sealed bytes differ:\n rows %v %x\n dram %v %x", step, idx, oka, ra, okb, rb)
		}
		if ca, cb := a.Counter(idx), b.Counter(idx); ca != cb {
			t.Fatalf("step %d: bucket %d counter %d with rows, %d without", step, idx, ca, cb)
		}
		if !read {
			continue
		}
		ba, erra := a.ReadBucket(idx)
		bb, errb := b.ReadBucket(idx)
		if errors.Is(erra, ErrIntegrity) != errors.Is(errb, ErrIntegrity) || (erra == nil) != (errb == nil) {
			t.Fatalf("step %d: bucket %d reads %v with rows, %v without", step, idx, erra, errb)
		}
		if erra == nil && (ba.Counter != bb.Counter || !bytes.Equal(plainBytes(ba, 64), plainBytes(bb, 64))) {
			t.Fatalf("step %d: bucket %d opens to different contents", step, idx)
		}
	}
	if ia, ib := a.BucketIndices(), b.BucketIndices(); !slices.Equal(ia, ib) {
		t.Fatalf("step %d: BucketIndices %v with rows, %v without", step, ia, ib)
	}
}

// sameWrites fails unless a's DRAM seals and row writes add up to b's seals.
func sameWrites(t *testing.T, step int, a, b *MemStore) {
	t.Helper()
	if a.Writes()+a.rowWrites != b.Writes() {
		t.Fatalf("step %d: %d DRAM seals + %d row writes with rows, %d seals without", step, a.Writes(), a.rowWrites, b.Writes())
	}
}

// TestTopRowsSealLikeDRAM drives a store whose top three levels are rows and
// one without any through the same seeded sequence of every call that
// writes: WriteBucket, PutBucketAt at counters below, at and past the stored
// one, RestoreRaw of verbatim, relocated and garbage bytes and of bytes of
// the wrong length, and Corrupt. Every index, rows and arena alike, must answer the same from
// both after every call: a row is a DRAM bucket that is not in DRAM.
func TestTopRowsSealLikeDRAM(t *testing.T) {
	const key = "golden-sealed-bytes-key"
	top := newMem(t, key)
	top.setTop(3)
	dram := noTop(newMem(t, key))
	if len(top.rows) != 7 {
		t.Fatalf("setTop(3) holds %d rows, want 7", len(top.rows))
	}
	sealed, _ := hex.DecodeString(goldenSealed[0].sealed) // bucket 0, counter 3
	short := sealed[:len(sealed)-4]                       // the pre-GCM length: refused
	const n = 16
	r := rng.New(2024)
	for step := 0; step < 4000; step++ {
		idx := r.Uint64n(n)
		both := func(f func(s *MemStore) error) {
			ea, eb := f(top), f(dram)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: bucket %d: %v with rows, %v without", step, idx, ea, eb)
			}
		}
		switch r.Uint64n(8) {
		case 0, 1:
			b := randomBucket(r, 4, 64)
			both(func(s *MemStore) error { return s.WriteBucket(idx, b) })
		case 2:
			b := randomBucket(r, 4, 64)
			counter := dram.Counter(idx) + r.Uint64n(4) - 1
			both(func(s *MemStore) error { return s.PutBucketAt(idx, b, counter) })
		case 3:
			src := idx
			if r.Bool(0.5) {
				src = r.Uint64n(n) // relocated bytes fail their tag
			}
			if raw, ok := dram.RawBucket(src); ok {
				both(func(s *MemStore) error { return s.RestoreRaw(idx, raw) })
			}
		case 4:
			raw := make([]byte, dram.rawSize)
			for i := range raw {
				raw[i] = byte(r.Uint64n(256))
			}
			raw[0], raw[1] = 0, 0 // a counter inside the nonce field, usually
			both(func(s *MemStore) error { return s.RestoreRaw(idx, raw) })
		case 5:
			raw := sealed
			if r.Bool(0.5) {
				raw = short
			}
			both(func(s *MemStore) error { return s.RestoreRaw(idx, raw) })
		case 6:
			if a, b := top.Corrupt(idx), dram.Corrupt(idx); a != b {
				t.Fatalf("step %d: Corrupt(%d) %v with rows, %v without", step, idx, a, b)
			}
		case 7:
			sameStores(t, step, top, dram, n, true)
		}
		sameStores(t, step, top, dram, n, false)
		sameWrites(t, step, top, dram)
	}
	sameStores(t, -1, top, dram, n, true)
	if top.rowWrites == 0 || top.Writes() == 0 {
		t.Fatalf("the sequence wrote %d rows and sealed %d DRAM buckets: both kinds must be exercised", top.rowWrites, top.Writes())
	}
}

// TestTopRowsStayOffDRAM runs a seeded engine workload, in path mode and in
// ring mode at A = 4, both with stash-pressure drains, over a store with the
// tree-top rows and a twin without. No index below 2^k - 1 may reach the
// arena, every path writeback seals exactly its Levels - k DRAM buckets, and
// every bucket's sealed bytes and counter match the twin's. A store restored
// from those bytes before its engine is built must lift its top buckets into
// rows and read the same.
func TestTopRowsStayOffDRAM(t *testing.T) {
	const levels = 8
	k := topLevels(levels)
	if k != 4 {
		t.Fatalf("topLevels(%d) = %d, want 4", levels, k)
	}
	for _, ring := range []int{0, 4} {
		build := func(s *MemStore) *Engine {
			e, err := NewEngine(s, NewSparsePosMap(), Options{
				Geometry: MustGeometry(levels), StashCapacity: 200, EvictThreshold: 2,
				Rand: rng.New(11), RingFlushInterval: ring,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		ms := newMem(t, "top-rows")
		twin := noTop(newMem(t, "top-rows"))
		e, te := build(ms), build(twin)
		r := rng.New(uint64(7 + ring))
		data := make([]byte, 64)
		for i := 0; i < 3000; i++ {
			addr := r.Uint64n(300)
			data[0] = byte(i)
			for _, eng := range []*Engine{e, te} {
				if _, _, err := eng.Access(addr, Op(i%2), data); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := e.Stats()
		if st.BackgroundEvicts == 0 {
			t.Fatalf("ring %d: the workload ran no drains", ring)
		}
		for idx := uint64(0); idx < 1<<k-1 && idx < uint64(len(ms.index)); idx++ {
			if ms.index[idx] != 0 {
				t.Fatalf("ring %d: row %d has an arena slot", ring, idx)
			}
		}
		if want := uint64(levels-k) * st.PathWrites; ms.Writes() != want {
			t.Fatalf("ring %d: %d DRAM seals over %d path writes, want %d", ring, ms.Writes(), st.PathWrites, want)
		}
		n := MustGeometry(levels).Buckets()
		sameStores(t, ring, ms, twin, n, false)
		sameWrites(t, ring, ms, twin)

		restored := newMem(t, "top-rows")
		for _, idx := range ms.BucketIndices() {
			raw, _ := ms.RawBucket(idx)
			if err := restored.RestoreRaw(idx, raw); err != nil {
				t.Fatal(err)
			}
		}
		build(restored)
		for idx := uint64(0); idx < 1<<k-1; idx++ {
			if restored.index[idx] != 0 {
				t.Fatalf("ring %d: restored row %d was left in the arena", ring, idx)
			}
		}
		sameStores(t, ring, restored, twin, n, true)
	}
}
