package dram

import (
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/event"
)

// TestTFAWLimitsActivates: five row-miss requests to five banks of one
// rank; the fifth ACT must wait for the tFAW window after the first.
func TestTFAWLimitsActivates(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	var first, fifth event.Time
	for i := 0; i < 5; i++ {
		i := i
		ch.Submit(Coord{Bank: i, Row: 7}, false, func(n event.Time) {
			if i == 0 {
				first = n
			}
			if i == 4 {
				fifth = n
			}
		})
	}
	eng.RunUntil(1_000_000)
	// The 5th activate can't start before tFAW after the 1st; its data
	// lands at least tFAW - 4*readSpacing later than the 1st access's.
	minGap := cpu(tm.TFAW) - 4*cpu(tm.TBURST)
	if fifth-first < minGap {
		t.Fatalf("five-activate window: gap %d < %d (tFAW not enforced)", fifth-first, minGap)
	}
}

// TestRankSwitchPenalty: alternating reads between ranks must be slower
// than the same stream within one rank (tRTRS).
func TestRankSwitchPenalty(t *testing.T) {
	run := func(alternate bool) event.Time {
		eng, ch, _, _ := testChannel(t)
		var last event.Time
		for i := 0; i < 16; i++ {
			rank := 0
			if alternate && i%2 == 1 {
				rank = 1
			}
			ch.Submit(Coord{Rank: rank, Bank: 0, Row: 1, Col: i}, false, func(n event.Time) { last = n })
		}
		eng.RunUntil(1_000_000)
		return last
	}
	same := run(false)
	alt := run(true)
	if alt <= same {
		t.Fatalf("rank-alternating stream %d not slower than same-rank %d", alt, same)
	}
}

// TestStreamingBandwidth: a long row-hit stream must approach one burst
// per tCCD (the data bus limit), i.e. ~8 CPU cycles per 64B line.
func TestStreamingBandwidth(t *testing.T) {
	eng, ch, org, tm := testChannel(t)
	const n = 256
	var last event.Time
	done := 0
	for i := 0; i < n; i++ {
		ch.Submit(Coord{Row: 3, Col: i % org.LinesPerRow()}, false, func(now event.Time) { done++; last = now })
	}
	eng.RunUntil(10_000_000)
	if done != n {
		t.Fatalf("%d/%d done", done, n)
	}
	perLine := float64(last) / n
	ideal := float64(cpu(tm.TCCD))
	if perLine > ideal*1.5 {
		t.Fatalf("streaming at %.1f cycles/line, ideal %.1f: row hits not exploited", perLine, ideal)
	}
}

// TestWriteDrainHysteresis: once draining starts it continues to the low
// watermark even if a read arrives.
func TestWriteDrainHysteresis(t *testing.T) {
	eng, ch, org, _ := testChannel(t)
	for i := 0; i < org.WriteDrainHigh; i++ {
		ch.Submit(Coord{Bank: i % 8, Row: uint32(i / 8), Col: i}, true, nil)
	}
	// Run a moment so draining engages.
	eng.RunUntil(200)
	readDone := event.Time(0)
	ch.Submit(Coord{Bank: 7, Row: 999}, false, func(n event.Time) { readDone = n })
	eng.RunUntil(1_000_000)
	if readDone == 0 {
		t.Fatal("read starved forever")
	}
	s := ch.Stats()
	if s.Writes == 0 {
		t.Fatal("no writes drained")
	}
}

// TestRowHitRateHighForPackedPattern: accesses emulating a packed ORAM
// subtree (sequential lines) should show a high row-hit rate.
func TestRowHitRateHighForPackedPattern(t *testing.T) {
	eng, ch, org, _ := testChannel(t)
	m := NewMapper(org, org.RanksPerChannel())
	for line := uint64(0); line < 512; line++ {
		ch.Submit(m.Map(line), false, nil)
	}
	eng.RunUntil(10_000_000)
	s := ch.Stats()
	rate := float64(s.RowHits) / float64(s.Reads)
	if rate < 0.9 {
		t.Fatalf("sequential row-hit rate %.2f, want ≥ 0.9", rate)
	}
}

// TestChannelsIndependent: two channels don't interfere.
func TestChannelsIndependent(t *testing.T) {
	eng := &event.Engine{}
	org := config.DefaultOrg(1)
	tm := config.DDR31600()
	a := NewChannel(eng, "a", org, tm, 2)
	b := NewChannel(eng, "b", org, tm, 2)
	var ta, tb event.Time
	a.Submit(Coord{Row: 1}, false, func(n event.Time) { ta = n })
	b.Submit(Coord{Row: 1}, false, func(n event.Time) { tb = n })
	eng.RunUntil(1_000_000)
	if ta != tb {
		t.Fatalf("identical requests on separate channels finished at %d and %d", ta, tb)
	}
}

// TestReadLatencyStat: AvgReadLatency matches the observed completion.
func TestReadLatencyStat(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	var done event.Time
	ch.Submit(Coord{Row: 2}, false, func(n event.Time) { done = n })
	eng.RunUntil(1_000_000)
	want := float64(cpu(tm.TRCD + tm.CL + tm.TBURST))
	s := ch.Stats()
	if s.AvgReadLatency() != want || event.Time(s.AvgReadLatency()) != done {
		t.Fatalf("avg latency %v, completion %d, want %v", s.AvgReadLatency(), done, want)
	}
}
