package oram

import (
	"bytes"
	"testing"

	"sdimm/internal/rng"
)

const (
	modesAddrs    = 12   // Access addresses [0, modesAddrs); AccessAt ones sit above modesAtBase
	modesAtBase   = 1000 // AccessAt addresses, driven by a caller-owned position map
	modesCapacity = 64
)

// modesEngine builds the engine a FuzzEngineModes tape runs on: path mode
// when ring is 0, ring mode at flush interval ring otherwise, with a low
// eviction threshold so stash-pressure evictions run often.
func modesEngine(t *testing.T, ring int) (*Engine, *MemStore) {
	t.Helper()
	ms, err := NewMemStore(4, 64, []byte("modes-fuzz-key"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ms, NewSparsePosMap(), Options{
		Geometry:          MustGeometry(5),
		StashCapacity:     modesCapacity,
		EvictThreshold:    4,
		Rand:              rng.New(5),
		RingFlushInterval: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ms
}

// runModesTape drives one engine through tape, two bytes an operation:
// Access read or write, AccessAt keep, AccessAt migrate (the test then
// holds the departed block) and StashInsert of a held block back into the
// engine. A plain map is the reference. After every operation the engine
// must return what was last written, hold every address it owns exactly
// once — one stash entry or one tree slot ring mode has not invalidated —
// and none it gave away, and keep its stash within capacity.
func runModesTape(t *testing.T, ring int, tape []byte) {
	e, ms := modesEngine(t, ring)
	leaves := e.Geometry().Leaves()
	r := rng.New(uint64(len(tape)))
	want := make(map[uint64][]byte) // last payload written per address
	owned := make(map[uint64]bool)  // addresses whose block the engine holds
	held := make(map[uint64]bool)   // AccessAt addresses migrated out, not yet re-inserted
	atPos := make(map[uint64]uint64)
	payload := func(addr uint64) []byte {
		if d, ok := want[addr]; ok {
			return d
		}
		return make([]byte, 64)
	}
	for i := 0; i+1 < len(tape); i += 2 {
		kind, arg := tape[i]%5, tape[i+1]
		var data []byte
		op := OpRead
		if arg&0x80 != 0 {
			op = OpWrite
			data = bytes.Repeat([]byte{byte(i), arg}, 32)
		}
		addr := modesAtBase + uint64(arg&0x7f)%modesAddrs
		switch {
		case kind <= 1:
			addr = uint64(arg&0x7f) % modesAddrs
			got, _, err := e.Access(addr, op, data)
			if err != nil {
				t.Fatalf("op %d: Access(%d): %v", i/2, addr, err)
			}
			if op == OpRead && !bytes.Equal(got, payload(addr)) {
				t.Fatalf("op %d: Access read %d = %x, want %x", i/2, addr, got[:4], payload(addr)[:4])
			}
			owned[addr] = true
		case kind <= 3 && !held[addr]:
			keep := kind == 2
			oldLeaf, mapped := atPos[addr]
			if !mapped {
				oldLeaf = r.Uint64n(leaves)
			}
			newLeaf := r.Uint64n(leaves)
			blk, _, err := e.AccessAt(addr, op, data, oldLeaf, newLeaf, keep)
			if err != nil {
				t.Fatalf("op %d: AccessAt(%d, keep %v): %v", i/2, addr, keep, err)
			}
			if op == OpRead && !bytes.Equal(blk.Data, payload(addr)) {
				t.Fatalf("op %d: AccessAt read %d = %x, want %x", i/2, addr, blk.Data[:4], payload(addr)[:4])
			}
			atPos[addr] = newLeaf
			owned[addr], held[addr] = keep, !keep
		case held[addr]:
			leaf := r.Uint64n(leaves)
			if err := e.StashInsert(Block{Addr: addr, Leaf: leaf, Data: payload(addr)}); err != nil {
				t.Fatalf("op %d: StashInsert(%d): %v", i/2, addr, err)
			}
			atPos[addr] = leaf
			owned[addr], held[addr] = true, false
			op = OpRead // the held payload goes back unchanged
		default:
			continue
		}
		if op == OpWrite {
			want[addr] = data
		}
		checkLiveCopies(t, e, ms, i/2, owned)
	}
}

// checkLiveCopies scans the stash and the whole tree: every address the
// engine owns has exactly one live copy, and no other address has any.
func checkLiveCopies(t *testing.T, e *Engine, ms *MemStore, op int, owned map[uint64]bool) {
	t.Helper()
	if n := e.StashLen(); n > modesCapacity {
		t.Fatalf("op %d: stash holds %d blocks, capacity %d", op, n, modesCapacity)
	}
	live := make(map[uint64]int)
	e.stash.Range(func(b Block) bool {
		live[b.Addr]++
		return true
	})
	for _, idx := range ms.BucketIndices() {
		b, err := ms.ReadBucket(idx)
		if err != nil {
			t.Fatal(err)
		}
		dead := e.RingInvalidSlots(idx)
		for si, s := range b.Slots {
			if !s.IsDummy() && dead&(1<<uint(si)) == 0 {
				live[s.Addr]++
			}
		}
	}
	for addr, n := range live {
		if !owned[addr] {
			t.Fatalf("op %d: address %d left the engine but has %d live copies", op, addr, n)
		}
	}
	for addr, own := range owned {
		if own && live[addr] != 1 {
			t.Fatalf("op %d: address %d has %d live copies, want 1", op, addr, live[addr])
		}
	}
}

// FuzzEngineModes runs the same fuzzer-chosen tape against a path engine and
// a ring engine, both checked against a plain map (runModesTape).
func FuzzEngineModes(f *testing.F) {
	f.Add([]byte{0, 0x81, 1, 0x82, 2, 0x83, 3, 0x03, 4, 0x03, 0, 0x01, 2, 0x03}, uint8(1))
	f.Add(bytes.Repeat([]byte{1, 0x85, 2, 0x86, 3, 0x07, 0, 0x05, 4, 0x07, 2, 0x07}, 12), uint8(0))
	f.Add(bytes.Repeat([]byte{3, 0x11, 3, 0x12, 3, 0x13, 4, 0x11, 4, 0x12, 4, 0x13, 1, 0xa0}, 8), uint8(3))
	f.Fuzz(func(t *testing.T, tape []byte, interval uint8) {
		if len(tape) > 1024 {
			tape = tape[:1024]
		}
		runModesTape(t, 0, tape)
		runModesTape(t, 1+int(interval%4), tape)
	})
}
