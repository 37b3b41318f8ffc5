package dram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sdimm/internal/config"
	"sdimm/internal/event"
)

// tapeOp is one request of the command-stream tape: submitted when the clock
// reads at.
type tapeOp struct {
	at    event.Time
	co    Coord
	write bool
}

// commandTape draws a fixed 4 000-request tape for 2 ranks × 8 banks from a
// SplitMix64 stream. Rows come from a set of eight so that hits, conflicts
// and closed banks all occur; the segments are the scheduler's corner cases:
// same-row clusters deeper than rowHitLookahead with a conflicting row mixed
// in, write bursts past WriteDrainHigh followed by a pause that lets the
// queue fall under WriteDrainLow, idle gaps longer than IdleThreshold, and a
// random read/write mix.
func commandTape() []tapeOp {
	s := uint64(0x5d1335eed)
	next := func(n uint64) uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return (z ^ z>>31) % n
	}
	var tape []tapeOp
	var now event.Time
	add := func(rank, bank, row, col uint64, write bool) {
		tape = append(tape, tapeOp{now, Coord{Rank: int(rank), Bank: int(bank), Row: uint32(row), Col: int(col)}, write})
	}
	for len(tape) < 4000 {
		switch next(8) {
		case 0:
			rank, bank, row := next(2), next(8), next(8)
			for i, n := 0, int(12+next(12)); i < n; i++ {
				add(rank, bank, row, next(128), false)
				if i%5 == 4 {
					add(rank, bank, (row+1+next(7))%8, next(128), next(4) == 0)
				}
			}
			now += event.Time(200 + next(400))
		case 1:
			for i, n := 0, int(45+next(20)); i < n; i++ {
				add(next(2), next(8), next(8), next(128), true)
			}
			now += event.Time(1500 + next(1500))
		case 2:
			now += event.Time(4000 + next(4000))
		default:
			for i, n := 0, int(1+next(16)); i < n; i++ {
				add(next(2), next(8), next(8), next(128), next(3) == 0)
			}
			now += event.Time(next(400))
		}
	}
	return tape[:4000]
}

// TestCommandStreamGolden pins the scheduler below the granularity of a
// table cell: every command the Observer sees, every completion time and the
// closing statistics of the tape above, hashed. The two digests were
// generated at commit 19dd6e0 (the scan over every rank × bank queue, one
// heap-allocated Request per Submit); any later scheduler must reproduce
// them exactly. The second leg turns AutoPowerDown on.
func TestCommandStreamGolden(t *testing.T) {
	want := map[bool]string{
		false: "3b9416773e76f4ee0eb226f5d08d361091c4ae396130ac9411425af902b3efc6",
		true:  "c31bc871c9f495bd01057c3e9a20f479d78b731871df5e346b8d56a6c519f4f2",
	}
	tape := commandTape()
	for _, autoPD := range []bool{false, true} {
		eng := &event.Engine{}
		org := config.DefaultOrg(1)
		ch := NewChannel(eng, "ch0", org, config.DDR31600(), 2)
		ch.AutoPowerDown = autoPD
		h := sha256.New()
		put := func(vs ...uint64) {
			var b [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
		drainFlips, wasDraining, deepest := 0, false, 0
		ch.Observer = func(now event.Time, kind CommandKind, co Coord) {
			put(0, uint64(now), uint64(kind), uint64(co.Rank), uint64(co.Bank), uint64(co.Row), uint64(co.Col))
			if ch.draining != wasDraining {
				drainFlips, wasDraining = drainFlips+1, ch.draining
			}
		}
		completed := 0
		for i, op := range tape {
			i := uint64(i)
			eng.RunUntil(op.at)
			ch.Submit(op.co, op.write, func(now event.Time) {
				put(1, i, uint64(now))
				completed++
			})
			if d := len(ch.bq[ch.bankIdx(op.co)].reads); d > deepest {
				deepest = d
			}
		}
		eng.RunUntil(tape[len(tape)-1].at + 1_000_000)
		st := ch.Stats()
		fmt.Fprintf(h, "%+v", st)

		// The tape must reach the cases it was drawn for.
		if completed != len(tape) || ch.Pending() != 0 {
			t.Fatalf("autoPD=%v: %d of %d completed, %d pending", autoPD, completed, len(tape), ch.Pending())
		}
		if deepest <= rowHitLookahead || drainFlips < 8 || st.PerRank[0].Refreshes < 2 || st.PerRank[1].Refreshes < 2 {
			t.Fatalf("autoPD=%v: tape too shallow: deepest read FIFO %d, %d drain flips, refreshes %d/%d",
				autoPD, deepest, drainFlips, st.PerRank[0].Refreshes, st.PerRank[1].Refreshes)
		}
		if wake := st.PerRank[0].Wakeups + st.PerRank[1].Wakeups; (wake > 0) != autoPD {
			t.Fatalf("autoPD=%v: %d wake-ups", autoPD, wake)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[autoPD] {
			t.Errorf("autoPD=%v: command-stream digest %s, want %s (drain flips %d, deepest %d, stats %+v)",
				autoPD, got, want[autoPD], drainFlips, deepest, st)
		}
	}
}
