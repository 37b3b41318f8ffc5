package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"sdimm/internal/raceflag"
	"sdimm/internal/telemetry"
)

// at records an event with an explicit timestamp, so dumps are
// deterministic.
func (r *Ring) at(ts uint64, k Kind, a, b uint64) { r.put(Event{TS: ts, Kind: k, A: a, B: b}) }

func TestRingWraparound(t *testing.T) {
	ring := New(0, 8).Coordinator()
	for i := 0; i < 20; i++ {
		ring.at(uint64(i+1), KindRetry, uint64(i), uint64(i*2))
	}
	evs := ring.Events()
	if len(evs) != 8 {
		t.Fatalf("Events() returned %d events, want 8", len(evs))
	}
	// Oldest-first: the retained events are 12..19.
	for i, ev := range evs {
		want := uint64(12 + i)
		if ev.A != want || ev.B != want*2 || ev.Kind != KindRetry || ev.TS != want+1 {
			t.Fatalf("event %d = %+v, want A=%d B=%d TS=%d", i, ev, want, want*2, want+1)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	ring := New(0, 8).Coordinator()
	ring.Record(KindCheckpoint, 7, 0)
	ring.Record(KindRecovery, 9, 1)
	evs := ring.Events()
	if len(evs) != 2 || evs[0].Kind != KindCheckpoint || evs[1].Kind != KindRecovery {
		t.Fatalf("Events() = %+v, want checkpoint then recovery", evs)
	}
	if evs[1].TS < evs[0].TS {
		t.Fatalf("Now went backwards: %d then %d", evs[0].TS, evs[1].TS)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Ring(0).Record(KindRetry, 1, 0) // must not panic
	r.Coordinator().Record(KindCheckpoint, 1, 0)
	r.RecordWave(&WaveRecord{})
	if r.Ring(3).Events() != nil || r.Waves() != nil {
		t.Fatal("nil recorder should be empty")
	}
	// A member index past the member rings drops instead of aliasing the
	// coordinator's ring.
	if New(2, 8).Ring(2) != nil {
		t.Fatal("Ring(members) must be nil, not the coordinator ring")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("nil recorder WriteTrace: %v", err)
	}
	if _, err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("nil recorder trace invalid: %v", err)
	}
}

func TestSizeRounding(t *testing.T) {
	r := New(1, 5)
	for i := 0; i < 100; i++ {
		r.Ring(0).Record(KindRetry, uint64(i), 0)
		r.RecordWave(&WaveRecord{Index: uint64(i)})
	}
	if got := len(r.Ring(0).Events()); got != 8 {
		t.Fatalf("size 5 should round to 8, retained %d", got)
	}
	if ws := r.Waves(); len(ws) != 2 || ws[0].Index != 98 || ws[1].Index != 99 {
		t.Fatalf("wave ring should retain the last 2 of 100 (a quarter of 8): %+v", ws)
	}
	if r := New(2, 0); len(r.rings[0].buf) != 1024 || len(r.waves.buf) != 256 {
		t.Fatalf("default sizes = %d events, %d waves; want 1024, 256", len(r.rings[0].buf), len(r.waves.buf))
	}
}

// TestConcurrentWriters records from one goroutine per ring while another
// goroutine dumps the recorder: under -race every ring's writer and the
// dump's copy must be synchronized.
func TestConcurrentWriters(t *testing.T) {
	const members = 8
	r := New(members, 64)
	var wg sync.WaitGroup
	for i := 0; i <= members; i++ {
		ring := r.Ring(i)
		if i == members {
			ring = r.Coordinator()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				ring.Record(KindRetry, uint64(i), uint64(j))
				if i == members {
					r.RecordWave(&WaveRecord{Index: uint64(j)})
				}
			}
		}()
	}
	dumped := make(chan error)
	go func() {
		var buf bytes.Buffer
		dumped <- r.WriteTrace(&buf)
	}()
	wg.Wait()
	if err := <-dumped; err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= members; i++ {
		ring := &r.rings[i]
		evs := ring.Events()
		if len(evs) != 64 {
			t.Fatalf("ring %d retains %d, want 64", i, len(evs))
		}
		for _, ev := range evs {
			if ev.A != uint64(i) {
				t.Fatalf("ring %d holds foreign event %+v", i, ev)
			}
		}
	}
}

// wave builds a record with the given phase durations (ns, from t0) and no
// idle time.
func wave(index, t0 uint64, ops int, durs [NumPhases]uint64) WaveRecord {
	w := WaveRecord{Index: index, Ops: ops}
	w.Bounds[0] = t0
	for p, d := range durs {
		w.Bounds[p+1] = w.Bounds[p] + d
	}
	return w
}

// TestDumpDeterministic checks that identical recordings with explicit
// timestamps produce bitwise-identical dumps, and that a wave renders as a
// cluster.wave span with one child per non-empty phase.
func TestDumpDeterministic(t *testing.T) {
	dump := func() []byte {
		r := New(2, 8)
		r.Ring(0).at(1000, KindRetry, 3, 0)
		r.Ring(0).at(2000, KindRetransmit, 1, 0)
		r.Ring(1).at(3000, KindHealth, 0, 1)
		r.Coordinator().at(4000, KindCheckpoint, 16, 0)
		w := wave(0, 5000, 8, [NumPhases]uint64{2000, 0, 0, 9000, 1000, 3000, 0})
		r.RecordWave(&w)
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatalf("dumps differ:\n%s\nvs\n%s", a, b)
	}
	n, err := telemetry.ValidateTrace(a)
	if err != nil {
		t.Fatalf("dump is not a valid trace: %v", err)
	}
	// Four events, one wave span, four non-empty phases.
	if n != 9 {
		t.Fatalf("trace has %d events, want 9", n)
	}
	var tf struct{ TraceEvents []telemetry.Event }
	if err := json.Unmarshal(a, &tf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range tf.TraceEvents[4:] {
		if ev.TID != 2 {
			t.Fatalf("wave span %q on lane %d, want the coordinator's (2)", ev.Name, ev.TID)
		}
		names = append(names, ev.Name)
	}
	if got := tf.TraceEvents[4]; got.Name != "cluster.wave" || got.TS != 5 || got.Dur != 15 {
		t.Fatalf("wave span = %+v, want cluster.wave at 5µs for 15µs", got)
	}
	if want := "[cluster.wave schedule access.wait commit dispatch]"; fmt.Sprint(names) != want {
		t.Fatalf("wave spans = %v, want %s", names, want)
	}
}

// TestWaveRecordIdle: a phase's idle time is the meter difference across
// it, clamped to the phase — a meter reading that ran ahead of its bound can
// neither exceed the interval nor go negative.
func TestWaveRecordIdle(t *testing.T) {
	w := wave(0, 100, 1, [NumPhases]uint64{10, 20, 0, 40, 10, 5, 0})
	w.Idle = [NumPhases + 1]uint64{0, 10, 10, 10, 90, 80, 85, 85}
	want := [NumPhases]uint64{10, 0, 0, 40, 0, 5, 0}
	var sum uint64
	for p := Phase(0); p < NumPhases; p++ {
		if got := w.IdleDur(p); got != want[p] {
			t.Errorf("IdleDur(%s) = %d, want %d", p, got, want[p])
		}
		sum += w.PhaseDur(p)
	}
	if sum != w.Wall() || w.Wall() != 85 {
		t.Fatalf("phases sum to %d, wall %d; want both 85", sum, w.Wall())
	}
}

func TestDumpFile(t *testing.T) {
	r := New(1, 8)
	r.Ring(0).Record(KindAbandon, 8, 0)
	path := t.TempDir() + "/flight.json"
	if err := r.DumpFile(path); err != nil {
		t.Fatalf("DumpFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	if _, err := telemetry.ValidateTrace(data); err != nil {
		t.Fatalf("dump file invalid: %v", err)
	}
}

func TestKindNames(t *testing.T) {
	for k := KindHealth; k <= KindReconstruct; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds should stringify as unknown")
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
	}
}

// TestRecordAllocationFree is the always-on guarantee: recording an event
// or a wave must not allocate.
func TestRecordAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	r := New(1, 64)
	ring := r.Ring(0)
	var w WaveRecord
	allocs := testing.AllocsPerRun(1000, func() {
		ring.Record(KindRetry, 1, 2)
		r.RecordWave(&w)
	})
	if allocs != 0 {
		t.Fatalf("Ring.Record + RecordWave allocate %.1f per op, want 0", allocs)
	}
}
