package protocol

import (
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/event"
)

// TestIndependentReadPriority: a read miss issued after a pile of posted
// writes must not wait for all of them.
func TestIndependentReadPriority(t *testing.T) {
	eng := &event.Engine{}
	b, err := NewIndependent(eng, cfgFor(config.Independent, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		b.Write(uint64(i * 7919))
	}
	var readDone event.Time
	b.Read(99999, func() { readDone = eng.Now() })
	eng.RunWhile(func() bool { return readDone == 0 })
	if readDone == 0 {
		t.Fatal("read never completed")
	}
	// The read must overtake the pile of posted writes: when it finishes,
	// posted work must still be waiting somewhere in the backend.
	pending := 0
	for sd := range b.work {
		pending += len(b.work[sd].posted)
	}
	chans, _ := b.Channels()
	for _, ch := range chans {
		pending += ch.Pending()
	}
	if pending == 0 {
		t.Fatal("all posted writes finished before the read: no priority")
	}
}

// TestSplitPipelineOverlaps: two back-to-back accesses on the split group
// must take less than twice one access (stage A of the second overlaps
// stage B of the first).
func TestSplitPipelineOverlaps(t *testing.T) {
	single := func(n int) event.Time {
		eng := &event.Engine{}
		b, err := NewSplit(eng, cfgFor(config.Split, 1, 22))
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i := 0; i < n; i++ {
			b.Read(uint64(i*104729), func() { done++ })
		}
		eng.RunWhile(func() bool { return done < n })
		return eng.Now()
	}
	one := single(1)
	four := single(4)
	if four >= 4*one {
		t.Fatalf("4 accesses took %d, ≥ 4x single %d: no pipelining", four, one)
	}
}

// TestIndepSplitBothHalvesProgress: concurrent misses spread across halves
// finish faster than on a single Split group of the same width.
func TestIndepSplitParallelHalves(t *testing.T) {
	addrs := make([]uint64, 16)
	for i := range addrs {
		addrs[i] = uint64(i * 900001)
	}
	engIS := &event.Engine{}
	bIS, err := NewIndepSplit(engIS, cfgFor(config.IndepSplit, 2, 22))
	if err != nil {
		t.Fatal(err)
	}
	tIS := issueReads(t, engIS, bIS, addrs)

	engS := &event.Engine{}
	bS, err := NewSplit(engS, cfgFor(config.Split, 2, 22))
	if err != nil {
		t.Fatal(err)
	}
	tS := issueReads(t, engS, bS, addrs)
	// Indep-split has 2 independent pipelines vs split's one (wider) one;
	// under high MLP it should not be slower.
	if float64(tIS) > 1.1*float64(tS) {
		t.Fatalf("indep-split %d much slower than split-4 %d under MLP", tIS, tS)
	}
}

// TestStation pins the discipline the baseline's request queue, each SDIMM's
// controller and each split group's fetch stage share: one item at a time,
// demand before posted, FIFO within a class.
func TestStation(t *testing.T) {
	var s station[string]
	if _, ok := s.take(); ok {
		t.Fatal("take from an empty station succeeded")
	}
	s.push("p1", true)
	s.push("d1", false)
	s.push("p2", true)
	s.push("d2", false)
	if got, ok := s.take(); !ok || got != "d1" || !s.busy {
		t.Fatalf("first take = %q, %v (busy %v); want d1 ahead of the older posted p1", got, ok, s.busy)
	}
	if got, ok := s.take(); ok {
		t.Fatalf("take while busy handed out %q", got)
	}
	// Demand that arrives while the station is busy still goes first.
	s.push("d3", false)
	for _, want := range []string{"d2", "d3", "p1", "p2"} {
		s.busy = false
		if got, ok := s.take(); !ok || got != want {
			t.Fatalf("take = %q, %v; want %q", got, ok, want)
		}
	}
	s.busy = false
	if _, ok := s.take(); ok || s.busy {
		t.Fatal("drained station handed out an item or stayed busy")
	}
}
