package freecursive

import (
	"bytes"
	"fmt"
	"testing"

	"sdimm/internal/oram"
	"sdimm/internal/rng"
)

func newFunctional(t *testing.T, plbEntries int) *Functional {
	t.Helper()
	f, err := NewFunctional(FunctionalOptions{
		DataBlocks: 4096,
		PosMaps:    2,
		PLBEntries: plbEntries,
		Levels:     12, // capacity 2*(2^12-1) = 8190 ≥ 4096+256+16
		Key:        []byte("recursive"),
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFunctionalValidation(t *testing.T) {
	bad := []FunctionalOptions{
		{DataBlocks: 100, PosMaps: 0, Levels: 10},
		{DataBlocks: 1 << 20, PosMaps: 2, Levels: 8}, // too small a tree
		{DataBlocks: 100, PosMaps: 2, Levels: 40},    // leaves exceed 32-bit entries
	}
	for i, o := range bad {
		if _, err := NewFunctional(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestFunctionalReadYourWrites(t *testing.T) {
	f := newFunctional(t, 64)
	payload := func(i int) []byte {
		b := make([]byte, 64)
		copy(b, fmt.Sprintf("rec-%d", i))
		return b
	}
	for i := 0; i < 64; i++ {
		if _, err := f.Access(uint64(i*37%4096), oram.OpWrite, payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 64; i++ {
		got, err := f.Access(uint64(i*37%4096), oram.OpRead, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got[:8], payload(i)[:8]) {
			t.Fatalf("read %d = %q", i, got[:8])
		}
	}
}

func TestFunctionalFreshReadsZero(t *testing.T) {
	f := newFunctional(t, 64)
	got, err := f.Access(1234, oram.OpRead, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("fresh block not zeros")
	}
}

func TestFunctionalRecursionCountWarmVsCold(t *testing.T) {
	f := newFunctional(t, 256)
	// Cold access: data + 2 posmap fetches.
	if _, err := f.Access(100, oram.OpRead, nil); err != nil {
		t.Fatal(err)
	}
	cold := f.Stats().ORAMAccesses
	if cold < 3 {
		t.Fatalf("cold access did %d ORAM accesses, want ≥ 3", cold)
	}
	// Warm repeat: both posmap blocks cached → exactly one more access.
	if _, err := f.Access(100, oram.OpRead, nil); err != nil {
		t.Fatal(err)
	}
	warm := f.Stats().ORAMAccesses - cold
	if warm != 1 {
		t.Fatalf("warm access did %d ORAM accesses, want 1 (PLB hit)", warm)
	}
	if f.Stats().PLBHits == 0 {
		t.Fatal("no PLB hits recorded")
	}
}

// TestFunctionalTinyPLBStillCorrect: with a PLB far smaller than the
// posmap working set, dirty evictions write back through the ORAM and
// nothing is lost.
func TestFunctionalTinyPLBStillCorrect(t *testing.T) {
	f := newFunctional(t, 9)
	r := rng.New(3)
	ref := map[uint64]byte{}
	for i := 0; i < 400; i++ {
		addr := r.Uint64n(4096)
		if r.Bool(0.5) {
			v := byte(r.Uint64n(250) + 1)
			buf := make([]byte, 64)
			buf[0] = v
			if _, err := f.Access(addr, oram.OpWrite, buf); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			ref[addr] = v
		} else {
			got, err := f.Access(addr, oram.OpRead, nil)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if got[0] != ref[addr] {
				t.Fatalf("op %d: addr %d = %d, want %d", i, addr, got[0], ref[addr])
			}
		}
	}
	if f.Stats().EvictionWrite == 0 {
		t.Fatal("tiny PLB never wrote back a dirty block")
	}
	if f.StashLen() > 200 {
		t.Fatalf("stash at %d", f.StashLen())
	}
}

func TestFunctionalRecursionOverheadShrinksWithPLB(t *testing.T) {
	run := func(plb int) float64 {
		f := newFunctional(t, plb)
		r := rng.New(5)
		base := uint64(0)
		for i := 0; i < 600; i++ {
			if r.Bool(0.05) {
				base = r.Uint64n(3500)
			}
			if _, err := f.Access((base+r.Uint64n(64))%4096, oram.OpRead, nil); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats().AccessesPerOp()
	}
	small := run(9)
	big := run(256)
	if big >= small {
		t.Fatalf("bigger PLB did not cut recursion: %v vs %v", big, small)
	}
	if big > 2 {
		t.Fatalf("warm large-PLB overhead %v, want < 2 accesses per op", big)
	}
}

func TestFunctionalAddressBounds(t *testing.T) {
	f := newFunctional(t, 64)
	if _, err := f.Access(99999999, oram.OpRead, nil); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}

func TestFunctionalStatsConsistency(t *testing.T) {
	f := newFunctional(t, 64)
	for i := uint64(0); i < 20; i++ {
		f.Access(i, oram.OpWrite, nil)
	}
	s := f.Stats()
	if s.DataAccesses != 20 {
		t.Fatalf("DataAccesses = %d", s.DataAccesses)
	}
	if s.ORAMAccesses < s.DataAccesses {
		t.Fatal("ORAM accesses below data accesses")
	}
	if s.AccessesPerOp() < 1 {
		t.Fatalf("AccessesPerOp = %v", s.AccessesPerOp())
	}
	var empty FunctionalStats
	if empty.AccessesPerOp() != 0 {
		t.Fatal("empty stats ratio nonzero")
	}
}
