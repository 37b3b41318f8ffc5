package blame

import (
	"testing"

	"sdimm/internal/flight"
)

// stamp sets bound b of rec the way the pipeline does: one clock reading
// (here explicit) and the collector's idle meter at that reading.
func stamp(col *Collector, rec *flight.WaveRecord, b int, now uint64) {
	rec.Bounds[b], rec.Idle[b] = now, col.Idle(now)
}

// stampAll stamps bounds 0..NumPhases at the given readings.
func stampAll(col *Collector, rec *flight.WaveRecord, at ...uint64) {
	for b, now := range at {
		stamp(col, rec, b, now)
	}
}

func TestWaveTiling(t *testing.T) {
	col := NewCollector(2, 16)
	rec := flight.WaveRecord{Ops: 8}
	stampAll(col, &rec, 100, 110, 130, 145, 185, 195, 200, 210)
	col.Fold(&rec)

	recs := col.Recent()
	if len(recs) != 1 || recs[0] != rec {
		t.Fatalf("Recent() = %+v, want exactly the folded record", recs)
	}
	if rec.Wall() != 110 {
		t.Fatalf("Wall() = %d, want 110", rec.Wall())
	}
	wantDur := map[flight.Phase]uint64{
		flight.PhaseSchedule:   10,
		flight.PhaseRetireWait: 20,
		flight.PhaseFinalize:   15,
		flight.PhaseAccessWait: 40,
		flight.PhaseCommit:     10,
		flight.PhaseDispatch:   5,
		flight.PhaseCheckpoint: 10,
	}
	var sum uint64
	for p, want := range wantDur {
		if got := rec.PhaseDur(p); got != want {
			t.Errorf("PhaseDur(%s) = %d, want %d", p, got, want)
		}
		sum += rec.PhaseDur(p)
	}
	if sum != rec.Wall() {
		t.Fatalf("phase intervals sum to %d, wall is %d — tiling broken", sum, rec.Wall())
	}

	rep := col.Report()
	if rep.AttributionRatio != 1.0 {
		t.Fatalf("AttributionRatio = %v, want exactly 1.0", rep.AttributionRatio)
	}
	if rep.Waves != 1 || rep.Ops != 8 || rep.WallNS != 110 {
		t.Fatalf("report totals = %+v", rep)
	}
}

// TestSkippedPhases: a wave that skips phases carries them at zero length
// on a shared bound — including the one-op wave's retire.wait, finalize and
// checkpoint — and attribution stays exact.
func TestSkippedPhases(t *testing.T) {
	col := NewCollector(1, 16)
	rec := flight.WaveRecord{Ops: 1}
	stampAll(col, &rec, 10, 30, 30, 30, 45, 50, 60, 60)
	col.Fold(&rec)

	want := [flight.NumPhases]uint64{20, 0, 0, 15, 5, 10, 0}
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		if d := rec.PhaseDur(p); d != want[p] {
			t.Fatalf("%s = %d, want %d", p, d, want[p])
		}
	}
	if rep := col.Report(); rep.AttributionRatio != 1.0 || rep.WallNS != 50 {
		t.Fatalf("attribution must stay exact on waves with skipped phases: %+v", rep)
	}
}

// TestIdleLedger drives the all-idle meter through one wave with a worker
// task covering part of it: only the stretches where zero tasks are in
// flight may land in the ledger, attributed to the phase they fell inside,
// and the worker span must show up in the busy totals.
func TestIdleLedger(t *testing.T) {
	col := NewCollector(2, 16)
	rec := flight.WaveRecord{Ops: 4}

	stamp(col, &rec, 0, 0)
	stamp(col, &rec, 1, 10) // schedule 0..10 idle: no task in flight
	s := col.workerBegin(10)
	stamp(col, &rec, 2, 40) // retire.wait 10..40 covered by the task: zero idle
	col.workerEnd(WorkerAccess, s, 40)
	stamp(col, &rec, 3, 45) // finalize 40..45 idle again
	stamp(col, &rec, 4, 45) // access.wait zero-length
	stamp(col, &rec, 5, 60) // commit 45..60 idle
	stamp(col, &rec, 6, 65) // dispatch 60..65 idle
	stamp(col, &rec, 7, 65) // checkpoint zero-length
	col.Fold(&rec)

	wantIdle := [flight.NumPhases]uint64{10, 0, 5, 0, 15, 5, 0}
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		if got := rec.IdleDur(p); got != wantIdle[p] {
			t.Errorf("IdleDur(%s) = %d, want %d", p, got, wantIdle[p])
		}
	}

	rep := col.Report()
	if rep.AccessBusyNS != 30 || rep.AppendBusyNS != 0 {
		t.Fatalf("busy totals = access %d append %d, want 30/0", rep.AccessBusyNS, rep.AppendBusyNS)
	}
	if rep.SerializedNS != 35 {
		t.Fatalf("SerializedNS = %d, want 35 (total measured idle)", rep.SerializedNS)
	}
	if got, want := rep.SerializedShare, 35.0/65.0; got != want {
		t.Fatalf("SerializedShare = %v, want %v", got, want)
	}
	if got, want := rep.MaxSpeedup, 65.0/35.0; got != want {
		t.Fatalf("MaxSpeedup = %v, want %v", got, want)
	}
	if len(rep.Ledger) != int(flight.NumPhases) {
		t.Fatalf("ledger has %d entries, want every phase (%d)", len(rep.Ledger), flight.NumPhases)
	}
	wantOrder := []string{"commit", "schedule", "finalize", "dispatch"}
	for i, want := range wantOrder {
		if rep.Ledger[i].Phase != want {
			t.Fatalf("ledger[%d] = %s, want %s (full: %+v)", i, rep.Ledger[i].Phase, want, rep.Ledger)
		}
	}
	if rep.TopBottleneck != "commit" {
		t.Fatalf("TopBottleneck = %q, want commit", rep.TopBottleneck)
	}
}

// TestOverlapHidesIdle is the decoupling property the ledger exists to
// measure: a coordinator phase fully covered by an in-flight worker task
// (wave overlap) contributes interval time but zero serialized time.
func TestOverlapHidesIdle(t *testing.T) {
	col := NewCollector(2, 16)
	rec := flight.WaveRecord{Ops: 2}

	s := col.workerBegin(0) // previous wave's append still running
	stamp(col, &rec, 0, 0)
	stamp(col, &rec, 1, 30) // whole schedule phase overlapped by the task
	col.workerEnd(WorkerAppend, s, 30)
	for b := 2; b <= int(flight.NumPhases); b++ {
		stamp(col, &rec, b, 50)
	}
	col.Fold(&rec)

	if rec.PhaseDur(flight.PhaseSchedule) != 30 || rec.IdleDur(flight.PhaseSchedule) != 0 {
		t.Fatalf("schedule dur=%d idle=%d, want 30/0 (hidden behind worker)",
			rec.PhaseDur(flight.PhaseSchedule), rec.IdleDur(flight.PhaseSchedule))
	}
	if rec.IdleDur(flight.PhaseRetireWait) != 20 {
		t.Fatalf("retire.wait idle = %d, want 20 (meter restarts at WorkerEnd)", rec.IdleDur(flight.PhaseRetireWait))
	}
	if rep := col.Report(); rep.AppendBusyNS != 30 {
		t.Fatalf("AppendBusyNS = %d, want 30", rep.AppendBusyNS)
	}
}

func TestRingWraparoundOldestFirst(t *testing.T) {
	col := NewCollector(1, 4)
	for i := 0; i < 10; i++ {
		rec := flight.WaveRecord{Index: uint64(i), Ops: i}
		stampAll(col, &rec, uint64(i*100), uint64(i*100+10))
		col.Fold(&rec)
	}
	recs := col.Recent()
	if len(recs) != 4 {
		t.Fatalf("Recent() has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Index != want {
			t.Fatalf("recent[%d].Index = %d, want %d", i, rec.Index, want)
		}
	}
	if rep := col.Report(); rep.Waves != 10 {
		t.Fatalf("Waves = %d, want 10 (totals cover evicted records too)", rep.Waves)
	}
}

// TestNilSafety: a nil collector must be a complete no-op so production
// clusters run without one attached.
func TestNilSafety(t *testing.T) {
	var col *Collector
	if col.Idle(5) != 0 {
		t.Fatal("nil collector meter should read 0")
	}
	s := col.WorkerBegin()
	col.WorkerEnd(WorkerAccess, s)
	col.Fold(&flight.WaveRecord{Ops: 5})
	if col.Recent() != nil {
		t.Fatal("nil collector Recent() should be nil")
	}
	if rep := col.Report(); rep.Waves != 0 {
		t.Fatal("nil collector Report() should be zero")
	}
}

// TestInterWaveIdleExcluded: idle time accrued between waves (no wave
// open) never lands in any wave's ledger — each wave's idle is the meter's
// difference across its own bounds.
func TestInterWaveIdleExcluded(t *testing.T) {
	col := NewCollector(2, 8)

	w0 := flight.WaveRecord{Ops: 1}
	stampAll(col, &w0, 0, 50, 50, 50, 50, 50, 50, 50) // fully idle: 50ns
	col.Fold(&w0)
	// 50..100: idle with no wave open.
	w1 := flight.WaveRecord{Ops: 1}
	stampAll(col, &w1, 100, 120, 120, 120, 120, 120, 120, 120)
	col.Fold(&w1)

	var idle0, idle1 uint64
	for p := flight.Phase(0); p < flight.NumPhases; p++ {
		idle0 += w0.IdleDur(p)
		idle1 += w1.IdleDur(p)
	}
	if idle0 != 50 || idle1 != 20 {
		t.Fatalf("wave idle = %d, %d; want 50, 20 (inter-wave gap leaked in)", idle0, idle1)
	}
	if rep := col.Report(); rep.SerializedNS != 70 {
		t.Fatalf("SerializedNS = %d, want 70", rep.SerializedNS)
	}
}
