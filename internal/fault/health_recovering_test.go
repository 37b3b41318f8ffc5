package fault

import (
	"errors"
	"testing"

	"sdimm/internal/telemetry"
)

// TestHealthRecoveringTransitionSequence drives the machine through
// post-restart probation, asserting the exact telemetry edge order: entering
// Recovering resets the failure streak, the first success promotes to
// Healthy, and Failed stays sticky against probation.
func TestHealthRecoveringTransitionSequence(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(2)
	w := &healthWatch{}
	w.attach(reg, h)

	someErr := errors.New("transient")
	h.Failure(someErr)
	h.Failure(someErr) // healthy>degraded
	h.MarkRecovering() // degraded>recovering
	if got := h.Consecutive(); got != 0 {
		t.Fatalf("probation kept a consecutive-failure streak of %d", got)
	}
	h.Success()        // recovering>healthy
	h.MarkRecovering() // healthy>recovering
	h.Failure(ErrFailStop)
	h.MarkRecovering() // Failed is sticky: no edge

	want := []string{
		"healthy>degraded",
		"degraded>recovering",
		"recovering>healthy",
		"healthy>recovering",
		"recovering>failed",
	}
	if got := w.log(); !edgesEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	snap := reg.Snapshot()
	if v := snap.Counters["fault.health.transitions{from=recovering,to=healthy}"]; v != 1 {
		t.Fatalf("recovering>healthy counter = %d, want 1", v)
	}
	if v := snap.Counters["fault.health.transitions{from=recovering,to=failed}"]; v != 1 {
		t.Fatalf("recovering>failed counter = %d, want 1", v)
	}
	if v := snap.Gauges["fault.health.state{sdimm=0}"]; v != int64(Failed) {
		t.Fatalf("state gauge = %d, want %d", v, Failed)
	}
}

// TestHealthRestoreFiresObserver pins the durability contract: loading a
// checkpointed health state notifies the observer, so gauges and transition
// counters attached to a freshly built tracker stay exact across recovery.
func TestHealthRestoreFiresObserver(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := NewHealth(3)
	w := &healthWatch{}
	w.attach(reg, h)

	h.Restore(Degraded, 4, 10, 6)
	if got := w.log(); !edgesEqual(got, []string{"healthy>degraded"}) {
		t.Fatalf("edges = %v, want [healthy>degraded]", got)
	}
	if h.State() != Degraded || h.Consecutive() != 4 {
		t.Fatalf("restored state %v/%d, want Degraded/4", h.State(), h.Consecutive())
	}
	if s, f := h.Totals(); s != 10 || f != 6 {
		t.Fatalf("restored totals %d/%d, want 10/6", s, f)
	}
	if v := reg.Snapshot().Gauges["fault.health.state{sdimm=0}"]; v != int64(Degraded) {
		t.Fatalf("state gauge = %d, want %d", v, Degraded)
	}
}
