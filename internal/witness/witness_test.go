package witness

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"sdimm/internal/fault"
	"sdimm/internal/telemetry"
)

func frame(n int) []byte { return make([]byte, n) }

func TestShapeViolationAfterCalibration(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{Members: 2, Registry: reg})

	// Calibrate both directions of member 0 with two legitimate lengths.
	for i := 0; i < calibration; i++ {
		m.Tap(0, fault.HostToDev, 0, frame(64))
		m.Tap(0, fault.DevToHost, 0, frame(128))
	}
	if v := m.Verdict(); !v.OK {
		t.Fatalf("calibration frames must not violate: %+v", v)
	}

	// A never-seen length after calibration is a distinguisher.
	m.Tap(0, fault.HostToDev, 0, frame(65))
	v := m.Verdict()
	if v.OK || v.ShapeViolations != 1 {
		t.Fatalf("verdict = %+v, want one shape violation", v)
	}
	if m.Violations() != 1 {
		t.Fatalf("Violations() = %d, want 1", m.Violations())
	}

	// The other direction and the other member are calibrated independently:
	// the same length is fine where it was learned.
	m.Tap(0, fault.DevToHost, 0, frame(128))
	if got := m.Violations(); got != 1 {
		t.Fatalf("known shape re-counted: %d", got)
	}

	// Telemetry surfaced the violation.
	snap := reg.Snapshot()
	if got := snap.Counters["witness.violations{kind=shape}"]; got != 1 {
		t.Fatalf("witness.violations{kind=shape} = %d, want 1", got)
	}
}

func TestShapeDiversityCapDuringCalibration(t *testing.T) {
	m := New(Options{Members: 1})
	for i := 0; i < maxShapes; i++ {
		m.Tap(0, fault.HostToDev, 0, frame(10+i))
	}
	if !m.Verdict().OK {
		t.Fatal("shapes within the cap must pass")
	}
	// One more distinct length exceeds maxShapes even inside calibration.
	m.Tap(0, fault.HostToDev, 0, frame(99))
	if v := m.Verdict(); v.OK || v.ShapeViolations != 1 {
		t.Fatalf("verdict = %+v, want shape violation for unbounded diversity", v)
	}
}

func TestBalanceViolationOnSilencedMember(t *testing.T) {
	m := New(Options{Members: 4, Window: 100})
	// Skew one window hard: member 0 carries 97 frames, members 1-2 carry
	// little, member 3 is fully silent (exempt).
	for i := 0; i < 97; i++ {
		m.Tap(0, fault.HostToDev, 0, frame(64))
	}
	m.Tap(1, fault.HostToDev, 0, frame(64))
	m.Tap(2, fault.HostToDev, 0, frame(64))
	m.Tap(2, fault.HostToDev, 0, frame(64))
	v := m.Verdict()
	if v.Windows != 1 {
		t.Fatalf("windows checked = %d, want 1", v.Windows)
	}
	// fair = 100/3 ≈ 33.3; members 1 (1 frame) and 2 (2 frames) sit below
	// fair/4 ≈ 8.3 and trip; member 0 at 97 stays inside the 4× band.
	if v.BalanceViolations != 2 {
		t.Fatalf("verdict = %+v, want 2 balance violations", v)
	}
	if v.OK {
		t.Fatal("verdict must not be OK")
	}
}

func TestBalancedTrafficStaysSilent(t *testing.T) {
	m := New(Options{Members: 4, Window: 64})
	for w := 0; w < 10; w++ {
		for i := 0; i < 64; i++ {
			m.Tap(i%4, fault.HostToDev, 0, frame(64))
		}
	}
	v := m.Verdict()
	if !v.OK || v.Windows != 10 {
		t.Fatalf("uniform traffic flagged: %+v", v)
	}
}

func TestZeroTrafficMemberExempt(t *testing.T) {
	m := New(Options{Members: 4, Window: 60})
	// Member 3 removed from the cluster: the remaining three split evenly.
	for i := 0; i < 60; i++ {
		m.Tap(i%3, fault.HostToDev, 0, frame(64))
	}
	if v := m.Verdict(); !v.OK {
		t.Fatalf("removed member must be exempt: %+v", v)
	}
}

func TestNilAndOutOfRange(t *testing.T) {
	var m *Monitor
	m.Tap(0, fault.HostToDev, 0, frame(64)) // must not panic
	if m.Violations() != 0 {
		t.Fatal("nil monitor has violations")
	}
	if v := m.Verdict(); !v.OK {
		t.Fatal("nil monitor verdict must be OK")
	}

	m2 := New(Options{Members: 2})
	m2.Tap(-1, fault.HostToDev, 0, frame(64))
	m2.Tap(2, fault.HostToDev, 0, frame(64))
	if v := m2.Verdict(); v.Frames != 0 {
		t.Fatalf("out-of-range taps counted: %+v", v)
	}
}

// TestConcurrentTaps is the concurrency-safety test: four goroutines tap
// with no interleaving guarantee, the frame total must be exact and the run
// race-clean. The balance window spans all 4000 frames, so the one balance
// check sees exactly 1000 frames per member however the scheduler
// interleaved them; a shorter window would judge the scheduler, not the
// monitor (a 128-frame window can legitimately hold one goroutine's burst).
func TestConcurrentTaps(t *testing.T) {
	m := New(Options{Members: 4, Window: 4000})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(sd int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Tap(sd, fault.HostToDev, 0, frame(64))
			}
		}(g)
	}
	wg.Wait()
	v := m.Verdict()
	if v.Frames != 4000 {
		t.Fatalf("frames = %d, want 4000", v.Frames)
	}
	if !v.OK || v.Windows != 1 {
		t.Fatalf("uniform concurrent traffic flagged, or the balance check never ran: %+v", v)
	}
}

func TestHandlerVerdict(t *testing.T) {
	m := New(Options{Members: 1})
	for i := 0; i < calibration; i++ {
		m.Tap(0, fault.HostToDev, 0, frame(64))
	}

	req := httptest.NewRequest("GET", "/witness", nil)
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("healthy verdict status = %d, want 200", rec.Code)
	}
	var v Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("verdict not JSON: %v", err)
	}
	if !v.OK || v.Frames != calibration {
		t.Fatalf("verdict body = %+v", v)
	}

	// Break the shape invariant; the endpoint must go 500.
	m.Tap(0, fault.HostToDev, 0, frame(999))
	rec = httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, req)
	if rec.Code != 500 {
		t.Fatalf("violated verdict status = %d, want 500", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.OK || v.ShapeViolations != 1 {
		t.Fatalf("violated body = %+v (err %v)", v, err)
	}
}

// OnViolation must fire once per violating Tap, outside the lock (re-entrant
// Verdict calls from the callback must not deadlock), and never on clean
// traffic.
func TestOnViolationCallback(t *testing.T) {
	var fired []string
	var m *Monitor
	m = New(Options{Members: 2, Window: 4, OnViolation: func(kind string) {
		fired = append(fired, kind)
		// Re-entrancy: the serving front end snapshots the verdict from the
		// callback while dumping the flight recorder.
		if v := m.Verdict(); v.OK {
			t.Errorf("callback saw OK verdict after a violation")
		}
	}})
	for i := 0; i < calibration; i++ {
		m.Tap(0, fault.HostToDev, 0, frame(64))
		m.Tap(1, fault.HostToDev, 0, frame(64))
	}
	if len(fired) != 0 {
		t.Fatalf("calibration fired callbacks: %v", fired)
	}
	m.Tap(0, fault.HostToDev, 0, frame(99))
	if len(fired) != 1 || fired[0] != "shape" {
		t.Fatalf("shape violation callbacks = %v, want [shape]", fired)
	}
	// Starve (but do not silence) member 1 for a full window: its share
	// drops below fair/4 and the balance check fires the callback.
	var kinds []string
	m2 := New(Options{Members: 2, Window: 32,
		OnViolation: func(kind string) { kinds = append(kinds, kind) }})
	m2.Tap(0, fault.HostToDev, 0, frame(64))
	m2.Tap(1, fault.HostToDev, 0, frame(64))
	for i := 0; i < 29; i++ {
		m2.Tap(0, fault.HostToDev, 0, frame(64))
	}
	m2.Tap(1, fault.HostToDev, 0, frame(64))
	sawBalance := false
	for _, k := range kinds {
		if k == "balance" {
			sawBalance = true
		}
	}
	if !sawBalance {
		t.Fatalf("starved member raised no balance callback: %v", kinds)
	}
}
