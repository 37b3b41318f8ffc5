package event

import (
	"testing"
	"testing/quick"

	"sdimm/internal/raceflag"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if !e.Empty() {
		t.Fatal("zero engine not empty")
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestTimeOrdering(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 0} {
		at := at
		e.Schedule(at, func(Time) { got = append(got, at) })
	}
	e.Run()
	want := []Time{0, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinSameCycle(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 16; i++ {
		i := i
		e.Schedule(5, func(Time) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order %v not FIFO", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var e Engine
	var at Time
	e.Schedule(42, func(Time) { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("Now() inside event = %d, want 42", at)
	}
	if e.Now() != 42 {
		t.Fatalf("final Now() = %d, want 42", e.Now())
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	var e Engine
	fired := Time(0)
	e.Schedule(100, func(Time) {
		e.Schedule(10, func(Time) { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamp to 100", fired)
	}
}

func TestAfter(t *testing.T) {
	var e Engine
	var fired Time
	e.Schedule(7, func(Time) {
		e.After(5, func(Time) { fired = e.Now() })
	})
	e.Run()
	if fired != 12 {
		t.Fatalf("After fired at %d, want 12", fired)
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	ran := false
	h := e.Schedule(5, func(Time) { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and cancel-after-run must be no-ops.
	h.Cancel()
	h2 := e.Schedule(6, func(Time) {})
	e.Run()
	h2.Cancel()
}

func TestPendingCountsLiveOnly(t *testing.T) {
	var e Engine
	h := e.Schedule(1, func(Time) {})
	e.Schedule(2, func(Time) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	h.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func(Time) { fired = append(fired, at) })
	}
	e.RunUntil(15)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(15) fired %v, want 3 events", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now after RunUntil = %d, want 15", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("RunUntil(100): fired=%v now=%d", fired, e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	var e Engine
	n := 0
	var tick func(Time)
	tick = func(Time) {
		n++
		e.After(1, tick)
	}
	e.After(1, tick)
	e.RunWhile(func() bool { return n < 10 })
	if n != 10 {
		t.Fatalf("RunWhile stopped at n=%d, want 10", n)
	}
}

func TestChainedScheduling(t *testing.T) {
	var e Engine
	depth := 0
	var recur func(Time)
	recur = func(Time) {
		depth++
		if depth < 1000 {
			e.After(3, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 3*999 {
		t.Fatalf("Now = %d, want %d", e.Now(), 3*999)
	}
}

// Property: for any tape of schedules, cancels (through live, fired and
// stale handles alike) and steps, the engine fires exactly the events a
// sorted-slice reference fires, in the same order and at the same times.
func TestPropertyOrdering(t *testing.T) {
	type ref struct {
		at   Time
		live bool
	}
	f := func(tape []uint16) bool {
		var e Engine
		var model []ref // in schedule order, so a strict < below is FIFO within a cycle
		var handles []Handle
		var fired, want []int
		var now Time
		stepRef := func() bool {
			best := -1
			for i, r := range model {
				if r.live && (best < 0 || r.at < model[best].at) {
					best = i
				}
			}
			if best < 0 {
				return false
			}
			model[best].live = false
			now = model[best].at
			want = append(want, best)
			return true
		}
		for _, u := range tape {
			switch arg := int(u >> 2); u % 4 {
			case 0, 1:
				id, at := len(model), Time(arg%97)
				handles = append(handles, e.Schedule(at, func(Time) { fired = append(fired, id) }))
				if at < now {
					at = now
				}
				model = append(model, ref{at, true})
			case 2:
				if len(handles) > 0 {
					handles[arg%len(handles)].Cancel()
					model[arg%len(handles)].live = false
				}
			case 3:
				if e.Step() != stepRef() || e.Now() != now {
					return false
				}
			}
		}
		e.Run()
		for stepRef() {
		}
		if len(fired) != len(want) || e.Now() != now || !e.Empty() {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// An item goes back to the free list when it is popped, so a handle can
// outlive the event it names: cancelling through it must not touch the event
// that now occupies the item.
func TestCancelStaleHandle(t *testing.T) {
	var e Engine
	a := e.Schedule(1, func(Time) {})
	e.Step()
	ranB := false
	b := e.Schedule(2, func(Time) { ranB = true })
	if a.it != b.it {
		t.Fatal("B did not take A's recycled item; the test no longer covers reuse")
	}
	a.Cancel()
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a stale cancel, want 1", e.Pending())
	}
	e.Run()
	if !ranB {
		t.Fatal("a stale handle cancelled the event that reused its item")
	}

	// A cancelled event's item is recycled when it is popped dead; its
	// handle, and the fired B's, are then stale too.
	c := e.Schedule(3, func(Time) { t.Error("cancelled event ran") })
	c.Cancel()
	e.Run()
	ranD := false
	d := e.Schedule(4, func(Time) { ranD = true })
	c.Cancel()
	b.Cancel()
	e.Run()
	d.Cancel()
	if !ranD {
		t.Fatal("cancelling a popped dead item's handle killed its successor")
	}

	// Items belong to one engine: equal seqs in two engines never meet.
	var e1, e2 Engine
	h1 := e1.Schedule(1, func(Time) {})
	e1.Step()
	ran2 := false
	e2.Schedule(1, func(Time) { ran2 = true })
	h1.Cancel()
	e2.Run()
	if !ran2 {
		t.Fatal("a handle from one engine cancelled an event of another")
	}
}

// A warm engine schedules and fires without allocating: the item comes from
// the free list and the callback is passed as it is.
func TestScheduleStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	var e Engine
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(100, fn).Cancel()
		e.After(7, fn)
		e.Step()
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule + Step on a warm engine: %.1f allocs/op, want 0", avg)
	}
}
