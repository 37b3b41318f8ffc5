package dram

import (
	"testing"

	"sdimm/internal/event"
	"sdimm/internal/raceflag"
)

// A warm channel serves requests without allocating: the queued request
// comes from the channel's free list, the scheduler's wake-up is a Timer
// re-armed in place, completions and refreshes are values in the engine's
// heap, the evaluate and refresh callbacks are bound once, and the
// completion callback goes to the engine unwrapped. The run crosses several
// refresh intervals.
func TestChannelSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, ch, _, _ := testChannel(t)
	done := 0
	onDone := func(event.Time) { done++ }
	busy := func() bool { return ch.Pending() > 0 }
	round := func() {
		for i := 0; i < 64; i++ {
			co := Coord{Rank: i % 3, Bank: (i * 5) % 8, Row: uint32(i % 4), Col: i}
			if i%3 == 0 {
				ch.Submit(co, true, nil)
			} else {
				ch.Submit(co, false, onDone)
			}
		}
		eng.RunWhile(busy)
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("64 submits and a drain on a warm channel: %.1f allocs, want 0", avg)
	}
	if s := ch.Stats(); s.Refreshes == 0 || done == 0 {
		t.Fatalf("run too short to cover a refresh: %+v", s)
	}
}
