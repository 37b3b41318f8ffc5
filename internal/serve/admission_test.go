package serve

import (
	"testing"
	"time"

	"sdimm/internal/queueing"
	"sdimm/internal/rng"
)

// fakeClock is a deterministic time source for admission tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func admWithClock(t *testing.T, o AdmissionOptions, c *fakeClock) *Admission {
	t.Helper()
	o.now = c.now
	a, err := NewAdmission(o)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdmissionLimitFromQueueing(t *testing.T) {
	a, err := NewAdmission(AdmissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.QueueLimitFor(0.9, 1e-4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Limit() != want {
		t.Fatalf("Limit = %d, want QueueLimitFor's %d", a.Limit(), want)
	}
	if a.Limit() != 66 {
		t.Fatalf("Limit = %d, want the design point's 66", a.Limit())
	}
}

func TestAdmissionDepthLimitSheds(t *testing.T) {
	clk := newFakeClock()
	a := admWithClock(t, AdmissionOptions{}, clk)
	limit := a.Limit()
	for i := 0; i < limit; i++ {
		if d := a.Admit(time.Second, false); d != Accepted {
			t.Fatalf("admit %d/%d = %v", i, limit, d)
		}
	}
	if d := a.Admit(time.Second, false); d != ShedOverload {
		t.Fatalf("over-limit admit = %v, want ShedOverload", d)
	}
	a.Done(time.Millisecond)
	if d := a.Admit(time.Second, false); d != Accepted {
		t.Fatalf("admit after Done = %v", d)
	}
}

func TestAdmissionDeadlineInfeasibleSheds(t *testing.T) {
	clk := newFakeClock()
	a := admWithClock(t, AdmissionOptions{}, clk)
	// Teach the EWMA a 10ms service time.
	for i := 0; i < 50; i++ {
		if a.Admit(time.Second, false) != Accepted {
			t.Fatal("warmup admit refused")
		}
		a.Done(10 * time.Millisecond)
	}
	// Queue up 20 requests: drain time ≈ 200ms.
	for i := 0; i < 20; i++ {
		if a.Admit(time.Second, false) != Accepted {
			t.Fatal("queue admit refused")
		}
	}
	if d := a.Admit(50*time.Millisecond, false); d != ShedDeadline {
		t.Fatalf("infeasible deadline admit = %v, want ShedDeadline", d)
	}
	if d := a.Admit(2*time.Second, false); d != Accepted {
		t.Fatalf("feasible deadline admit = %v, want Accepted", d)
	}
}

// TestAdmissionDeadlineUsesServiceTime: at depth 32 each completion's
// sojourn is 32 service times, and the drain-time estimate must be built
// from the service time, not the sojourn — or a request with four times the
// slack its real wait needs is shed as infeasible.
func TestAdmissionDeadlineUsesServiceTime(t *testing.T) {
	const depth, svc = 32, 30 * time.Microsecond
	clk := newFakeClock()
	a := admWithClock(t, AdmissionOptions{}, clk)
	if a.Limit() <= depth+1 {
		t.Fatalf("default limit %d too small for the scenario", a.Limit())
	}
	for i := 0; i < depth; i++ {
		if a.Admit(time.Second, false) != Accepted {
			t.Fatal("fill admit refused")
		}
	}
	// Steady state: one completion per service time, each after a sojourn of
	// depth service times, and one arrival to replace it.
	for i := 0; i < 200; i++ {
		clk.advance(svc)
		a.Done(depth * svc)
		if a.Admit(time.Second, false) != Accepted {
			t.Fatal("steady-state admit refused")
		}
	}
	wait := (depth + 1) * svc
	if d := a.Admit(4*wait, false); d != Accepted {
		t.Fatalf("admit with 4x the real wait as slack = %v, want Accepted", d)
	}
	if d := a.Admit(wait/4, false); d != ShedDeadline {
		t.Fatalf("admit with a quarter of the real wait as slack = %v, want ShedDeadline", d)
	}
}

func TestAdmissionRetryBudget(t *testing.T) {
	clk := newFakeClock()
	a := admWithClock(t, AdmissionOptions{}, clk)
	// A burst of retryBurst retries passes, the next one sheds.
	for i := 0; i < retryBurst; i++ {
		if d := a.Admit(time.Second, true); d != Accepted {
			t.Fatalf("retry %d = %v", i, d)
		}
		a.Done(time.Millisecond)
	}
	if d := a.Admit(time.Second, true); d != ShedOverload {
		t.Fatalf("budget-exhausted retry = %v, want ShedOverload", d)
	}
	// Non-retries are unaffected.
	if d := a.Admit(time.Second, false); d != Accepted {
		t.Fatalf("fresh request during retry exhaustion = %v", d)
	}
	a.Done(time.Millisecond)
	// One second refills retryRate tokens.
	clk.advance(time.Second)
	for i := 0; i < retryRate; i++ {
		if d := a.Admit(time.Second, true); d != Accepted {
			t.Fatalf("refilled retry %d = %v", i, d)
		}
		a.Done(time.Millisecond)
	}
	if d := a.Admit(time.Second, true); d != ShedOverload {
		t.Fatalf("over-refill retry = %v", d)
	}
}

func TestAdmissionCapacityShrinksLimit(t *testing.T) {
	clk := newFakeClock()
	cap := 1.0
	o := AdmissionOptions{Capacity: func() float64 { return cap }}
	a := admWithClock(t, o, clk)
	full := a.Limit()

	count := func() int {
		n := 0
		for a.Admit(time.Second, false) == Accepted {
			n++
		}
		for i := 0; i < n; i++ {
			a.Done(0)
		}
		return n
	}
	if got := count(); got != full {
		t.Fatalf("full capacity admitted %d, want %d", got, full)
	}
	cap = 0.5
	if got := count(); got != full/2 {
		t.Fatalf("half capacity admitted %d, want %d", got, full/2)
	}
	cap = 0
	if d := a.Admit(time.Second, false); d != ShedOverload {
		t.Fatalf("zero capacity admit = %v", d)
	}
}

func TestAdmissionClose(t *testing.T) {
	clk := newFakeClock()
	a := admWithClock(t, AdmissionOptions{}, clk)
	if a.Admit(time.Second, false) != Accepted {
		t.Fatal("pre-close admit refused")
	}
	a.Close()
	a.Close() // idempotent
	if d := a.Admit(time.Second, false); d != ShedClosing {
		t.Fatalf("post-close admit = %v, want ShedClosing", d)
	}
}

// TestAdmissionPermutationInvariance is the tenant-obliviousness pin at the
// type level: admission decisions are a pure function of the (slack, retry)
// arrival sequence and completion schedule. Relabeling which tenant issued
// which request cannot change any decision because no identity flows into
// Admit — we verify by replaying the same arrival sequence twice and
// demanding identical decision vectors, then noting the signature admits no
// other inputs.
func TestAdmissionPermutationInvariance(t *testing.T) {
	r := rng.Stream(11, "admission-perm", 0)
	type arrival struct {
		slack time.Duration
		retry bool
		done  bool // complete one outstanding request before this arrival
	}
	seq := make([]arrival, 400)
	for i := range seq {
		seq[i] = arrival{
			slack: time.Duration(1+r.Uint64n(100)) * time.Millisecond,
			retry: r.Bool(0.2),
			done:  r.Bool(0.4),
		}
	}
	replay := func() []Decision {
		clk := newFakeClock()
		a := admWithClock(t, AdmissionOptions{}, clk)
		outstanding := 0
		out := make([]Decision, len(seq))
		for i, ar := range seq {
			if ar.done && outstanding > 0 {
				a.Done(5 * time.Millisecond)
				outstanding--
			}
			clk.advance(time.Millisecond)
			out[i] = a.Admit(ar.slack, ar.retry)
			if out[i] == Accepted {
				outstanding++
			}
		}
		return out
	}
	a, b := replay(), replay()
	accepted, shed := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical replays: %v vs %v", i, a[i], b[i])
		}
		if a[i] == Accepted {
			accepted++
		} else {
			shed++
		}
	}
	if accepted == 0 || shed == 0 {
		t.Fatalf("degenerate sequence: %d accepted, %d shed", accepted, shed)
	}
}

// TestAdmissionUnderBurstyArrivals replays the queueing-package result at
// the admission layer: MMPP-bursty arrivals at the same mean rate as a
// uniform stream must shed strictly more, because bursts pile into the
// depth limit that the mean-rate analysis would never hit.
func TestAdmissionUnderBurstyArrivals(t *testing.T) {
	run := func(m queueing.MMPP, seed uint64) (accepted, shed int) {
		clk := newFakeClock()
		a := admWithClock(t, AdmissionOptions{}, clk)
		r := rng.Stream(seed, "admission-mmpp", 0)
		high := false
		outstanding := 0
		for tick := 0; tick < 20000; tick++ {
			clk.advance(time.Millisecond)
			rate := m.LowRate
			if high {
				rate = m.HighRate
			}
			if r.Bool(rate) {
				if a.Admit(time.Second, false) == Accepted {
					accepted++
					outstanding++
				} else {
					shed++
				}
			}
			if outstanding > 0 && r.Bool(0.30) {
				a.Done(4 * time.Millisecond)
				outstanding--
			}
			flip := m.PDown
			if !high {
				flip = m.PUp
			}
			if r.Bool(flip) {
				high = !high
			}
		}
		return accepted, shed
	}
	uniform := queueing.MMPP{LowRate: 0.25, HighRate: 0.25, PUp: 0.002, PDown: 0.002}
	bursty := queueing.MMPP{LowRate: 0.05, HighRate: 0.45, PUp: 0.002, PDown: 0.002}
	ua, us := run(uniform, 21)
	ba, bs := run(bursty, 21)
	if ua == 0 || ba == 0 {
		t.Fatalf("degenerate runs: uniform accepted %d, bursty accepted %d", ua, ba)
	}
	uRate := float64(us) / float64(ua+us)
	bRate := float64(bs) / float64(ba+bs)
	if bRate <= uRate {
		t.Fatalf("bursty arrivals shed no more than uniform: %.3f vs %.3f", bRate, uRate)
	}
	t.Logf("shed rate: uniform %.3f, bursty %.3f", uRate, bRate)
}
