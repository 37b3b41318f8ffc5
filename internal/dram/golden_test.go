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

// commandTape draws a fixed 4 000-request tape for ranks × 8 banks from a
// SplitMix64 stream. Rows come from a set of eight so that hits, conflicts
// and closed banks all occur; the segments are the scheduler's corner cases:
// same-row clusters deeper than rowHitLookahead with a conflicting row mixed
// in, write bursts past WriteDrainHigh followed by a pause that lets the
// queue fall under WriteDrainLow, idle gaps longer than IdleThreshold, and a
// random read/write mix.
func commandTape(ranks uint64) []tapeOp {
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
			rank, bank, row := next(ranks), next(8), next(8)
			for i, n := 0, int(12+next(12)); i < n; i++ {
				add(rank, bank, row, next(128), false)
				if i%5 == 4 {
					add(rank, bank, (row+1+next(7))%8, next(128), next(4) == 0)
				}
			}
			now += event.Time(200 + next(400))
		case 1:
			for i, n := 0, int(45+next(20)); i < n; i++ {
				add(next(ranks), next(8), next(8), next(128), true)
			}
			now += event.Time(1500 + next(1500))
		case 2:
			now += event.Time(4000 + next(4000))
		default:
			for i, n := 0, int(1+next(16)); i < n; i++ {
				add(next(ranks), next(8), next(8), next(128), next(3) == 0)
			}
			now += event.Time(next(400))
		}
	}
	return tape[:4000]
}

// TestCommandStreamGolden pins the scheduler below the granularity of a
// table cell: every command the Observer sees, every completion time and the
// closing statistics of the tape above, hashed. The 2-rank digests were
// generated at commit 19dd6e0 (the scan over every rank × bank queue, one
// heap-allocated Request per Submit); the second of them turns AutoPowerDown
// on. The 8-rank digest is the host-channel shape of the paper's tables
// (2 DIMMs × 4 ranks × 8 banks, a full 64-bank mask word) and was generated
// at commit a7c3a51, before the flat bank table: it reaches tRRD and tFAW on
// every rank, not only on the first two. Any later scheduler must reproduce
// all three exactly.
func TestCommandStreamGolden(t *testing.T) {
	legs := []struct {
		ranks  int
		autoPD bool
		want   string
	}{
		{2, false, "3b9416773e76f4ee0eb226f5d08d361091c4ae396130ac9411425af902b3efc6"},
		{2, true, "c31bc871c9f495bd01057c3e9a20f479d78b731871df5e346b8d56a6c519f4f2"},
		{8, false, "12b9f91194b8084ea15667b09de284253f90067873735af7d05d2d9c75dd91d3"},
	}
	tm := config.DDR31600()
	org := config.DefaultOrg(1)
	tRRD := event.Time(tm.TRRD * org.CPUCyclesPerMemCycle)
	tFAW := event.Time(tm.TFAW * org.CPUCyclesPerMemCycle)
	for _, leg := range legs {
		tape := commandTape(uint64(leg.ranks))
		eng := &event.Engine{}
		ch := NewChannel(eng, "ch0", org, tm, leg.ranks)
		ch.AutoPowerDown = leg.autoPD
		h := sha256.New()
		put := func(vs ...uint64) {
			var b [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
		// acts holds each rank's last four ACT times, newest last; an ACT
		// issued exactly tRRD after the rank's previous one, or tFAW after
		// the fourth before it, was held back by that constraint.
		acts := make([][]event.Time, leg.ranks)
		rrdBound := make([]int, leg.ranks)
		fawBound := make([]int, leg.ranks)
		drainFlips, wasDraining, deepest := 0, false, 0
		ch.Observer = func(now event.Time, kind CommandKind, co Coord) {
			put(0, uint64(now), uint64(kind), uint64(co.Rank), uint64(co.Bank), uint64(co.Row), uint64(co.Col))
			if ch.draining != wasDraining {
				drainFlips, wasDraining = drainFlips+1, ch.draining
			}
			if kind == CmdActivate {
				a := acts[co.Rank]
				if n := len(a); n > 0 && now == a[n-1]+tRRD {
					rrdBound[co.Rank]++
				}
				if len(a) == 4 {
					if now == a[0]+tFAW {
						fawBound[co.Rank]++
					}
					a = a[1:]
				}
				acts[co.Rank] = append(a, now)
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
			if d := len(ch.banks[ch.bankIdx(op.co)].q[0].reqs()); d > deepest {
				deepest = d
			}
		}
		eng.RunUntil(tape[len(tape)-1].at + 1_000_000)
		st := ch.Stats()
		fmt.Fprintf(h, "%+v", st)

		// The tape must reach the cases it was drawn for.
		name := fmt.Sprintf("ranks=%d autoPD=%v", leg.ranks, leg.autoPD)
		if completed != len(tape) || ch.Pending() != 0 {
			t.Fatalf("%s: %d of %d completed, %d pending", name, completed, len(tape), ch.Pending())
		}
		if deepest <= rowHitLookahead || drainFlips < 8 {
			t.Fatalf("%s: tape too shallow: deepest read FIFO %d, %d drain flips", name, deepest, drainFlips)
		}
		wake := uint64(0)
		for r, rs := range st.PerRank {
			if rs.Refreshes < 2 {
				t.Fatalf("%s: rank %d refreshed %d times", name, r, rs.Refreshes)
			}
			if leg.ranks == 8 && (rrdBound[r] == 0 || fawBound[r] == 0) {
				t.Fatalf("%s: rank %d: %d ACTs held by tRRD, %d by tFAW", name, r, rrdBound[r], fawBound[r])
			}
			wake += rs.Wakeups
		}
		if (wake > 0) != leg.autoPD {
			t.Fatalf("%s: %d wake-ups", name, wake)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != leg.want {
			t.Errorf("%s: command-stream digest %s, want %s (drain flips %d, deepest %d, tRRD-held %v, tFAW-held %v, stats %+v)",
				name, got, leg.want, drainFlips, deepest, rrdBound, fawBound, st)
		}
	}
}
