package dram

import (
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/event"
)

func testChannel(t *testing.T) (*event.Engine, *Channel, config.Org, config.Timing) {
	t.Helper()
	eng := &event.Engine{}
	org := config.DefaultOrg(1)
	tm := config.DDR31600()
	ch := NewChannel(eng, "ch0", org, tm, org.RanksPerChannel())
	return eng, ch, org, tm
}

// cpu converts memory cycles to CPU cycles for the default 2:1 ratio.
func cpu(memCycles int) event.Time { return event.Time(memCycles * 2) }

func TestSingleReadLatency(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	var done event.Time
	ch.Submit(Coord{Rank: 0, Bank: 0, Row: 5, Col: 3}, false, func(now event.Time) { done = now })
	eng.RunUntil(50_000_000)
	// Closed bank: ACT at 0, RD at tRCD, data at tRCD+CL+tBURST.
	want := cpu(tm.TRCD + tm.CL + tm.TBURST)
	if done != want {
		t.Fatalf("read completed at %d, want %d", done, want)
	}
	s := ch.Stats()
	if s.Reads != 1 || s.Activates != 1 || s.RowHits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, ch, _, _ := testChannel(t)
	var t1, t2, t3 event.Time
	c := Coord{Rank: 0, Bank: 0, Row: 5, Col: 0}
	ch.Submit(c, false, func(n event.Time) { t1 = n })
	c.Col = 1
	ch.Submit(c, false, func(n event.Time) { t2 = n })
	c.Row = 9 // conflict
	ch.Submit(c, false, func(n event.Time) { t3 = n })
	eng.RunUntil(50_000_000)
	hitCost := t2 - t1
	missCost := t3 - t2
	if hitCost >= missCost {
		t.Fatalf("row hit cost %d not less than conflict cost %d", hitCost, missCost)
	}
	if s := ch.Stats(); s.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", s.RowHits)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// Two requests to different banks should finish sooner than two to the
	// same bank+row-conflict.
	run := func(c2 Coord) event.Time {
		eng, ch, _, _ := testChannel(t)
		var last event.Time
		ch.Submit(Coord{Row: 1}, false, func(n event.Time) { last = n })
		ch.Submit(c2, false, func(n event.Time) { last = n })
		eng.RunUntil(50_000_000)
		return last
	}
	parallel := run(Coord{Bank: 1, Row: 2})
	serial := run(Coord{Bank: 0, Row: 2})
	if parallel >= serial {
		t.Fatalf("different-bank completion %d not before same-bank conflict %d", parallel, serial)
	}
}

func TestWritesDrainAtWatermark(t *testing.T) {
	eng, ch, org, _ := testChannel(t)
	// Fill the write queue past the high watermark with one read pending;
	// the drain must let writes through even though reads have priority.
	reads := 0
	for i := 0; i < org.WriteDrainHigh+5; i++ {
		ch.Submit(Coord{Bank: i % 8, Row: uint32(i), Col: 0}, true, nil)
	}
	ch.Submit(Coord{Bank: 0, Row: 100}, false, func(event.Time) { reads++ })
	eng.RunUntil(1_000_000)
	s := ch.Stats()
	if s.Writes == 0 {
		t.Fatal("no writes drained")
	}
	if reads != 1 {
		t.Fatal("read never completed")
	}
	if ch.Pending() != 0 {
		t.Fatalf("%d requests stuck", ch.Pending())
	}
}

func TestReadPriorityUnderLightWrites(t *testing.T) {
	eng, ch, _, _ := testChannel(t)
	var readDone, writeDone event.Time
	// One write then one read to different banks: with light write traffic
	// the read should be served first (write queue below watermark).
	ch.Submit(Coord{Bank: 0, Row: 1}, true, func(n event.Time) { writeDone = n })
	ch.Submit(Coord{Bank: 1, Row: 1}, false, func(n event.Time) { readDone = n })
	eng.RunUntil(50_000_000)
	if readDone >= writeDone {
		t.Fatalf("read done at %d, write at %d: read not prioritized", readDone, writeDone)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	eng, ch, org, _ := testChannel(t)
	const n = 500
	completed := 0
	for i := 0; i < n; i++ {
		ch.Submit(Coord{
			Rank: i % org.RanksPerChannel(),
			Bank: (i / 3) % org.BanksPerRank,
			Row:  uint32(i * 7 % org.RowsPerBank),
			Col:  i % org.LinesPerRow(),
		}, i%3 == 0, func(event.Time) { completed++ })
	}
	eng.RunUntil(100_000_000)
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	s := ch.Stats()
	if s.Reads+s.Writes != n {
		t.Fatalf("reads+writes = %d, want %d", s.Reads+s.Writes, n)
	}
}

func TestCompletionOrderWithinBankIsFIFOPerRow(t *testing.T) {
	eng, ch, _, _ := testChannel(t)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		ch.Submit(Coord{Row: 1, Col: i}, false, func(event.Time) { order = append(order, i) })
	}
	eng.RunUntil(50_000_000)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-row completion order %v", order)
		}
	}
}

func TestRefreshHappens(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	eng.RunUntil(event.Time(3 * tm.TREFI * 2))
	s := ch.Stats()
	if s.Refreshes == 0 {
		t.Fatal("no refreshes fired")
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	// Let the first refresh start, then submit immediately after it begins.
	eng.RunUntil(event.Time(tm.TREFI*2 + 2))
	var done event.Time
	ch.Submit(Coord{Row: 3}, false, func(n event.Time) { done = n })
	eng.RunUntil(50_000_000)
	plain := cpu(tm.TRCD + tm.CL + tm.TBURST)
	if done < event.Time(tm.TREFI*2)+plain {
		t.Fatalf("access during refresh finished at %d, too early", done)
	}
	// It must be delayed by roughly tRFC.
	if done > event.Time((tm.TREFI+tm.TRFC)*2)+plain+100 {
		t.Fatalf("access delayed too long: %d", done)
	}
}

func TestPowerDownAndWake(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	// Warm access, then power the rank down and access again: the second
	// access pays the tXP wake penalty.
	var t1 event.Time
	ch.Submit(Coord{Row: 1}, false, func(n event.Time) { t1 = n })
	eng.RunUntil(50_000_000)
	ch.PowerDown(0)
	eng.RunUntil(50_001_000) // idle while powered down
	start := eng.Now()
	var t2 event.Time
	ch.Submit(Coord{Row: 1, Col: 5}, false, func(n event.Time) { t2 = n })
	eng.RunUntil(50_000_000)
	_ = t1
	lat := t2 - start
	if lat < cpu(tm.TXP) {
		t.Fatalf("post-powerdown access latency %d < tXP %d", lat, cpu(tm.TXP))
	}
	s := ch.Stats()
	if s.PerRank[0].Wakeups != 1 {
		t.Fatalf("Wakeups = %d, want 1", s.PerRank[0].Wakeups)
	}
	if s.PerRank[0].TPowerDown == 0 {
		t.Fatal("no power-down residency recorded")
	}
}

func TestPowerDownRefusedWithPendingWork(t *testing.T) {
	eng, ch, _, _ := testChannel(t)
	ch.Submit(Coord{Row: 1}, false, nil)
	ch.PowerDown(0) // must be refused: queued work
	eng.RunUntil(50_000_000)
	s := ch.Stats()
	if s.PerRank[0].Wakeups != 0 {
		t.Fatal("rank powered down despite queued work")
	}
	if s.Reads != 1 {
		t.Fatalf("read lost: %+v", s)
	}
}

func TestResidencyAccounting(t *testing.T) {
	eng, ch, _, _ := testChannel(t)
	done := false
	ch.Submit(Coord{Row: 1}, false, func(event.Time) { done = true })
	eng.RunUntil(10_000)
	if !done {
		t.Fatal("request did not complete")
	}
	s := ch.Stats()
	r0 := s.PerRank[0]
	total := r0.TActive + r0.TPrecharge + r0.TPowerDown
	if total == 0 || total > uint64(eng.Now()) {
		t.Fatalf("residency sum %d vs now %d", total, eng.Now())
	}
	if r0.TActive == 0 {
		t.Fatal("no active residency despite an access")
	}
}

func TestSubmitPanicsOnBadCoord(t *testing.T) {
	_, ch, _, _ := testChannel(t)
	for _, c := range []Coord{{Rank: 99}, {Bank: 99}, {Col: 9999}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", c)
				}
			}()
			ch.Submit(c, false, nil)
		}()
	}
}

func TestDataBusSerializesReads(t *testing.T) {
	eng, ch, _, tm := testChannel(t)
	// Many row hits in one bank: steady state is one burst per tCCD.
	var times []event.Time
	for i := 0; i < 10; i++ {
		ch.Submit(Coord{Row: 1, Col: i}, false, func(n event.Time) { times = append(times, n) })
	}
	eng.RunUntil(50_000_000)
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < cpu(tm.TBURST) {
			t.Fatalf("burst gap %d < tBURST %d", gap, cpu(tm.TBURST))
		}
	}
}

func TestMapperRoundTripDistinct(t *testing.T) {
	org := config.DefaultOrg(1)
	m := NewMapper(org, org.RanksPerChannel())
	seen := make(map[Coord]uint64)
	for line := uint64(0); line < 100_000; line += 97 {
		c := m.Map(line)
		if prev, dup := seen[c]; dup {
			t.Fatalf("lines %d and %d map to same coord %+v", prev, line, c)
		}
		seen[c] = line
	}
}

func TestMapperSequentialLinesShareRow(t *testing.T) {
	org := config.DefaultOrg(1)
	m := NewMapper(org, org.RanksPerChannel())
	c0 := m.Map(0)
	c1 := m.Map(1)
	if c0.Row != c1.Row || c0.Bank != c1.Bank || c0.Rank != c1.Rank {
		t.Fatalf("sequential lines not row-buffer friendly: %+v vs %+v", c0, c1)
	}
	cEnd := m.Map(uint64(org.LinesPerRow()))
	if cEnd.Bank == c0.Bank && cEnd.Rank == c0.Rank && cEnd.Row == c0.Row {
		t.Fatal("row boundary did not advance mapping")
	}
}

func TestMapperWrapsModuloCapacity(t *testing.T) {
	org := config.DefaultOrg(1)
	m := NewMapper(org, org.RanksPerChannel())
	if m.Map(0) != m.Map(m.Lines()) {
		t.Fatal("mapping did not wrap at capacity")
	}
}

func TestMapToRankPins(t *testing.T) {
	org := config.DefaultOrg(1)
	m := NewMapper(org, org.RanksPerChannel())
	for line := uint64(0); line < 10_000; line += 13 {
		c := m.MapToRank(line, 3)
		if c.Rank != 3 {
			t.Fatalf("MapToRank rank = %d", c.Rank)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MapToRank with bad rank did not panic")
		}
	}()
	m.MapToRank(0, 99)
}

func TestLinkOccupancyAndOrdering(t *testing.T) {
	eng := &event.Engine{}
	org := config.DefaultOrg(1)
	tm := config.DDR31600()
	l := NewLink(eng, org, tm)
	var done []event.Time
	for i := 0; i < 4; i++ {
		l.Transfer(64, func(n event.Time) { done = append(done, n) })
	}
	eng.RunUntil(50_000_000)
	if len(done) != 4 {
		t.Fatalf("%d transfers completed", len(done))
	}
	burst := event.Time(tm.TBURST * 2)
	for i := 1; i < 4; i++ {
		if done[i]-done[i-1] != burst {
			t.Fatalf("transfer spacing %d, want %d", done[i]-done[i-1], burst)
		}
	}
	s := l.Stats()
	if s.Transfers != 4 || s.Bytes != 256 {
		t.Fatalf("link stats %+v", s)
	}
}

func TestLinkShortCommandCheaperThanLine(t *testing.T) {
	eng := &event.Engine{}
	org := config.DefaultOrg(1)
	tm := config.DDR31600()
	l := NewLink(eng, org, tm)
	l.Transfer(8, nil)  // PROBE-sized
	l.Transfer(64, nil) // full line
	eng.RunUntil(50_000_000)
	s := l.Stats()
	full := uint64(tm.TBURST * 2)
	if s.BusyTime >= 2*full {
		t.Fatalf("short command billed as full burst: busy=%d", s.BusyTime)
	}
}

func TestLinkZeroByteCommand(t *testing.T) {
	eng := &event.Engine{}
	l := NewLink(eng, config.DefaultOrg(1), config.DDR31600())
	fired := false
	l.Transfer(0, func(event.Time) { fired = true })
	eng.RunUntil(50_000_000)
	if !fired {
		t.Fatal("zero-byte command never completed")
	}
}
