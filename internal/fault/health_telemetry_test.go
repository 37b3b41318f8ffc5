package fault

import (
	"errors"
	"sync"
	"testing"

	"sdimm/internal/telemetry"
)

// watchHealth mirrors the cluster's telemetry wiring for a tracker: a state
// gauge, one transition counter per edge, and an ordered edge log. The
// observer runs under the tracker's lock, so the log records transitions in
// the exact order they happened even under concurrent drivers.
type healthWatch struct {
	mu    sync.Mutex
	edges []string
}

func (w *healthWatch) attach(reg *telemetry.Registry, h *Health) {
	gauge := reg.Gauge("fault.health.state", "sdimm", "0")
	gauge.Set(int64(Healthy))
	h.SetObserver(func(from, to State) {
		gauge.Set(int64(to))
		reg.Counter("fault.health.transitions", "from", from.String(), "to", to.String()).Inc()
		w.mu.Lock()
		w.edges = append(w.edges, from.String()+">"+to.String())
		w.mu.Unlock()
	})
}

func (w *healthWatch) log() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.edges...)
}

func edgesEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestHealthTransitionSequence drives the state machine deterministically
// through degradation, recovery, and fail-stop, asserting the exact edge
// sequence the observer reports.
func TestHealthTransitionSequence(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(3)
	w := &healthWatch{}
	w.attach(reg, h)

	someErr := errors.New("transient")
	for i := 0; i < 3; i++ {
		h.Failure(someErr)
	}
	h.Success()
	for i := 0; i < 3; i++ {
		h.Failure(someErr)
	}
	h.Failure(ErrFailStop)
	h.Success() // Failed is sticky: no further transition

	want := []string{
		"healthy>degraded",
		"degraded>healthy",
		"healthy>degraded",
		"degraded>failed",
	}
	if got := w.log(); !edgesEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	snap := reg.Snapshot()
	if v := snap.Gauges["fault.health.state{sdimm=0}"]; v != int64(Failed) {
		t.Fatalf("state gauge = %d, want %d", v, Failed)
	}
	if v := snap.Counters["fault.health.transitions{from=healthy,to=degraded}"]; v != 2 {
		t.Fatalf("healthy>degraded counter = %d, want 2", v)
	}
	if v := snap.Counters["fault.health.transitions{from=degraded,to=failed}"]; v != 1 {
		t.Fatalf("degraded>failed counter = %d, want 1", v)
	}
}

// TestHealthConcurrentTransitions hammers one tracker from several
// failure-reporting goroutines while readers poll the public accessors and
// the registry snapshot, then fail-stops it. Because only failures are
// recorded, the machine can move exactly healthy→degraded→failed no matter
// the interleaving — the observer's ordered log must show precisely those
// two edges. Run with -race to check the locking.
func TestHealthConcurrentTransitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(3)
	w := &healthWatch{}
	w.attach(reg, h)

	someErr := errors.New("transient")
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.State()
				_ = h.Consecutive()
				_, _ = h.Totals()
				_ = reg.Snapshot()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				h.Failure(someErr)
			}
		}()
	}
	writers.Wait()
	h.Failure(ErrFailStop)
	close(stop)
	readers.Wait()

	want := []string{"healthy>degraded", "degraded>failed"}
	if got := w.log(); !edgesEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	if h.State() != Failed {
		t.Fatalf("state = %v, want Failed", h.State())
	}
	if _, failures := h.Totals(); failures != 101 {
		t.Fatalf("failures = %d, want 101", failures)
	}
	snap := reg.Snapshot()
	if v := snap.Counters["fault.health.transitions{from=healthy,to=degraded}"]; v != 1 {
		t.Fatalf("healthy>degraded counter = %d, want 1", v)
	}
	if v := snap.Counters["fault.health.transitions{from=degraded,to=failed}"]; v != 1 {
		t.Fatalf("degraded>failed counter = %d, want 1", v)
	}
	if v := snap.Gauges["fault.health.state{sdimm=0}"]; v != int64(Failed) {
		t.Fatalf("state gauge = %d, want %d", v, Failed)
	}
}
