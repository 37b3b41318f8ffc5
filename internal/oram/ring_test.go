package oram

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sdimm/internal/rng"
)

func newRingEngine(t *testing.T, levels, interval int) (*Engine, *MemStore) {
	t.Helper()
	ms, err := NewMemStore(4, 64, []byte("ring-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ms, NewSparsePosMap(), Options{
		Geometry:          MustGeometry(levels),
		StashCapacity:     200,
		EvictThreshold:    150,
		Rand:              rng.New(42),
		RingFlushInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ms
}

func TestRingEngineValidation(t *testing.T) {
	g := MustGeometry(4)
	if _, err := NewEngine(NewSparseStore(4), nil, Options{
		Geometry: g, StashCapacity: 10, EvictThreshold: 5, Rand: rng.New(1),
		RingFlushInterval: -1,
	}); err == nil {
		t.Error("negative flush interval accepted")
	}
	// Ring mode must keep at least one real slot after reserving dummies.
	if _, err := NewEngine(NewSparseStore(1), nil, Options{
		Geometry: g, StashCapacity: 10, EvictThreshold: 5, Rand: rng.New(1),
		RingFlushInterval: 4,
	}); err == nil {
		t.Error("Z=1 ring engine accepted")
	}
}

func TestRingReadYourWrites(t *testing.T) {
	e, _ := newRingEngine(t, 8, 4)
	payload := func(i int) []byte {
		b := make([]byte, 64)
		copy(b, fmt.Sprintf("ring-%d", i))
		return b
	}
	for i := 0; i < 60; i++ {
		if _, _, err := e.Access(uint64(i), OpWrite, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Rewrite half with new contents, then read everything back twice —
	// the second pass exercises reads of blocks whose tree slots were
	// invalidated by the first.
	for i := 0; i < 60; i += 2 {
		b := payload(i)
		b[63] = 0xAA
		if _, _, err := e.Access(uint64(i), OpWrite, b); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 60; i++ {
			got, _, err := e.Access(uint64(i), OpRead, nil)
			if err != nil {
				t.Fatalf("pass %d read %d: %v", pass, i, err)
			}
			want := payload(i)
			if i%2 == 0 {
				want[63] = 0xAA
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d read %d = %q, want %q", pass, i, got[:8], want[:8])
			}
		}
	}
	if e.StashLen() > e.stash.Capacity()/2 {
		t.Errorf("stash ran hot: %d of %d", e.StashLen(), e.stash.Capacity())
	}
}

// TestRingDrawsNoRandomness pins the property every equivalence suite leans
// on: the protocol-facing ring access path (AccessAt, where the caller owns
// the position map) never touches the engine's randomness source, so
// eviction order is a pure function of the access count.
func TestRingDrawsNoRandomness(t *testing.T) {
	e, _ := newRingEngine(t, 8, 3)
	leaves := e.Geometry().Leaves()
	pos := make(map[uint64]uint64)
	before := e.RandState()
	for i := 0; i < 200; i++ {
		addr := uint64(i % 40)
		op, data := OpRead, []byte(nil)
		if i%3 == 0 {
			op, data = OpWrite, make([]byte, 64)
		}
		oldLeaf, mapped := pos[addr]
		if !mapped {
			oldLeaf = uint64(i) % leaves
		}
		newLeaf := uint64(i*31+7) % leaves
		pos[addr] = newLeaf
		if _, _, err := e.AccessAt(addr, op, data, oldLeaf, newLeaf, true); err != nil {
			t.Fatal(err)
		}
	}
	if e.RandState() != before {
		t.Error("ring access drew from the randomness source")
	}
}

// TestRingWriteTraffic checks the headline property: at flush interval A,
// physical bucket writes per access land near Levels/A — far below the
// Levels-per-access of path mode — while reads stay one path per access.
func TestRingWriteTraffic(t *testing.T) {
	const levels, interval, accesses = 8, 4, 400
	ring, ringStore := newRingEngine(t, levels, interval)
	pathStore, err := NewMemStore(4, 64, []byte("ring-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewEngine(pathStore, NewSparsePosMap(), Options{
		Geometry:      MustGeometry(levels),
		StashCapacity: 200, EvictThreshold: 150, Rand: rng.New(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := 0; i < accesses; i++ {
		addr := uint64(i % 50)
		if _, _, err := ring.Access(addr, OpWrite, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := path.Access(addr, OpWrite, data); err != nil {
			t.Fatal(err)
		}
	}
	ringW := float64(ringStore.Writes()) / accesses
	pathW := float64(pathStore.Writes()) / accesses
	if ringW >= 0.8*pathW {
		t.Errorf("ring writes/access = %.2f, path = %.2f; want at least a 20%% reduction", ringW, pathW)
	}
	t.Logf("writes/access: ring %.2f, path %.2f (%.0f%% reduction)",
		ringW, pathW, 100*(1-ringW/pathW))
}

// TestRingMigrateLeavesNoLiveCopy: after a migrate access, neither the
// stash nor any non-invalidated tree slot holds the address.
func TestRingMigrateLeavesNoLiveCopy(t *testing.T) {
	e, ms := newRingEngine(t, 6, 2)
	data := make([]byte, 64)
	data[0] = 7
	if _, _, err := e.Access(5, OpWrite, data); err != nil {
		t.Fatal(err)
	}
	leaf, _ := e.PositionOf(5)
	blk, _, err := e.AccessAt(5, OpRead, nil, leaf, 0, false) // keep=false: migrate out
	if err != nil {
		t.Fatal(err)
	}
	if blk.Data[0] != 7 {
		t.Fatalf("migrated payload = %d, want 7", blk.Data[0])
	}
	if _, ok := e.StashGet(5); ok {
		t.Error("migrated block still in stash")
	}
	for _, idx := range ms.BucketIndices() {
		b, err := ms.ReadBucket(idx)
		if err != nil {
			t.Fatal(err)
		}
		dead := e.RingInvalidSlots(idx)
		for si, slot := range b.Slots {
			if !slot.IsDummy() && slot.Addr == 5 && dead&(1<<uint(si)) == 0 {
				t.Errorf("live copy of migrated block in bucket %d slot %d", idx, si)
			}
		}
	}
}

// TestRingReservedDummies: every bucket the ring writeback seals keeps at
// least one dummy slot free.
func TestRingReservedDummies(t *testing.T) {
	e, ms := newRingEngine(t, 6, 2)
	data := make([]byte, 64)
	for i := 0; i < 300; i++ {
		if _, _, err := e.Access(uint64(i%64), OpWrite, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range ms.BucketIndices() {
		b, err := ms.ReadBucket(idx)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.RealBlocks(); got > ms.Z()-1 {
			t.Errorf("bucket %d holds %d real blocks, want <= %d (reserved dummies)", idx, got, ms.Z()-1)
		}
	}
}

func TestReverseBits(t *testing.T) {
	cases := []struct {
		x    uint64
		bits int
		want uint64
	}{
		{0, 0, 0}, {0b1, 1, 0b1}, {0b01, 2, 0b10}, {0b001, 3, 0b100},
		{0b1011, 4, 0b1101}, {0b111, 3, 0b111},
	}
	for _, c := range cases {
		if got := reverseBits(c.x, c.bits); got != c.want {
			t.Errorf("reverseBits(%b, %d) = %b, want %b", c.x, c.bits, got, c.want)
		}
	}
}

// TestRingFlushOrderCoversAllLeaves: over Leaves() flushes the pointer
// visits every leaf exactly once, in bit-reversed order.
func TestRingFlushOrderCoversAllLeaves(t *testing.T) {
	e, _ := newRingEngine(t, 5, 1) // flush every access
	seen := make(map[uint64]int)
	data := make([]byte, 64)
	n := int(e.Geometry().Leaves())
	for i := 0; i < n; i++ {
		_, plan, err := e.Access(uint64(i), OpWrite, data)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.BackgroundLeaves) < 1 {
			t.Fatalf("access %d: no flush recorded", i)
		}
		seen[plan.BackgroundLeaves[0]]++
	}
	if len(seen) != n {
		t.Errorf("pointer covered %d of %d leaves in one revolution", len(seen), n)
	}
}

// TestRingStateRoundTrip: capture + restore reproduces the engine
// bit-for-bit — the continuation of a restored clone matches the original.
func TestRingStateRoundTrip(t *testing.T) {
	a, as := newRingEngine(t, 7, 3)
	data := make([]byte, 64)
	for i := 0; i < 123; i++ {
		data[0] = byte(i)
		if _, _, err := a.Access(uint64(i%30), OpWrite, data); err != nil {
			t.Fatal(err)
		}
	}

	// Clone: sealed buckets verbatim, stash, ring state, position map.
	bs, err := NewMemStore(4, 64, []byte("ring-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range as.BucketIndices() {
		raw, _ := as.RawBucket(idx)
		if err := bs.RestoreRaw(idx, raw); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewEngine(bs, NewSparsePosMap(), Options{
		Geometry:      MustGeometry(7),
		StashCapacity: 200, EvictThreshold: 150, Rand: rng.New(42),
		RingFlushInterval: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreStash(a.StashBlocks()); err != nil {
		t.Fatal(err)
	}
	st := a.RingState()
	if len(st.Dead) == 0 {
		t.Fatal("workload left no dead slots to round-trip")
	}
	if err := b.RestoreRingState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, b.RingState()) {
		t.Fatal("restored ring state differs from captured one")
	}
	for i := 0; i < 30; i++ {
		leaf, ok := a.PositionOf(uint64(i))
		if !ok {
			continue
		}
		ga, _, err := a.AccessAt(uint64(i), OpRead, nil, leaf, leaf, true)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := b.AccessAt(uint64(i), OpRead, nil, leaf, leaf, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga.Data, gb.Data) {
			t.Fatalf("addr %d: clone read diverged", i)
		}
	}
	if !reflect.DeepEqual(a.RingState(), b.RingState()) {
		t.Fatal("ring state diverged after identical continuations")
	}
}

// TestRestoreRingStateFailsClosed: every invalid state is rejected and
// leaves the engine's state as it was.
func TestRestoreRingStateFailsClosed(t *testing.T) {
	e, _ := newRingEngine(t, 6, 4)
	data := make([]byte, 64)
	for i := 0; i < 40; i++ {
		if _, _, err := e.Access(uint64(i%20), OpWrite, data); err != nil {
			t.Fatal(err)
		}
	}
	good := e.RingState()
	if len(good.Dead) == 0 {
		t.Fatal("workload left no dead slots")
	}
	with := func(phase int, dead ...DeadSlots) *RingState {
		return &RingState{Counter: good.Counter + 1, Phase: phase, Dead: dead}
	}
	last := e.geom.Buckets() - 1
	p, _ := newTestEngine(t, 6, true)
	for _, tc := range []struct {
		name string
		e    *Engine
		st   *RingState
	}{
		{"phase at flush interval", e, with(4)},
		{"negative phase", e, with(-1)},
		{"bucket out of range", e, with(0, DeadSlots{last + 1, 1})},
		{"mask beyond Z", e, with(0, DeadSlots{3, 1 << 4})},
		{"buckets not increasing", e, with(0, DeadSlots{5, 1}, DeadSlots{5, 2})},
		{"buckets decreasing", e, with(0, DeadSlots{5, 1}, DeadSlots{3, 2})},
		{"zero mask", e, with(0, DeadSlots{last, 0})},
		{"nil into a ring engine", e, nil},
		{"state into a path engine", p, good},
	} {
		before := tc.e.RingState()
		if err := tc.e.RestoreRingState(tc.st); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if !reflect.DeepEqual(before, tc.e.RingState()) {
			t.Errorf("%s: rejected restore changed the engine's ring state", tc.name)
		}
	}
	if err := e.RestoreRingState(good); err != nil {
		t.Fatalf("good state rejected after bad attempts: %v", err)
	}
	if err := p.RestoreRingState(nil); err != nil {
		t.Errorf("path-mode engine rejected the nil state: %v", err)
	}
}
