package fault

import "testing"

// The capacity ladder must be monotone in severity: a member never gains
// advertised capacity by getting sicker, and only terminal states zero out.
func TestCapacityWeightLadder(t *testing.T) {
	if w := Healthy.CapacityWeight(); w != 1.0 {
		t.Fatalf("Healthy weight %v, want 1", w)
	}
	order := []State{Healthy, Degraded, Draining, Failed}
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1].CapacityWeight(), order[i].CapacityWeight()
		if lo > hi {
			t.Fatalf("%v weight %v exceeds %v weight %v", order[i], lo, order[i-1], hi)
		}
	}
	if Recovering.CapacityWeight() != Degraded.CapacityWeight() {
		t.Fatalf("Recovering and Degraded should carry the same weight")
	}
	for _, s := range []State{Failed, Removed} {
		if w := s.CapacityWeight(); w != 0 {
			t.Fatalf("%v weight %v, want 0", s, w)
		}
	}
	for _, s := range []State{Healthy, Degraded, Recovering, Draining} {
		if w := s.CapacityWeight(); w <= 0 || w > 1 {
			t.Fatalf("%v weight %v out of (0,1]", s, w)
		}
	}
}

// A fail-stop mid-serving must drop the weight to zero through the ordinary
// state machine — the admission layer polls State().CapacityWeight() and
// needs no extra wiring.
func TestCapacityWeightTracksTransitions(t *testing.T) {
	h := NewHealth(3)
	if w := h.State().CapacityWeight(); w != 1.0 {
		t.Fatalf("fresh member weight %v, want 1", w)
	}
	for i := 0; i < 3; i++ {
		h.Failure(ErrUnavailable)
	}
	if w := h.State().CapacityWeight(); w != 0.5 {
		t.Fatalf("degraded member weight %v, want 0.5", w)
	}
	h.Success()
	if w := h.State().CapacityWeight(); w != 1.0 {
		t.Fatalf("recovered member weight %v, want 1", w)
	}
	h.MarkDraining()
	if w := h.State().CapacityWeight(); w != 0.25 {
		t.Fatalf("draining member weight %v, want 0.25", w)
	}
	h.Failure(ErrFailStop)
	if w := h.State().CapacityWeight(); w != 0 {
		t.Fatalf("failed member weight %v, want 0", w)
	}
}
