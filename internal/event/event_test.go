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

// A disarmed timer is not pending; an armed one is, alone or beside events,
// and it fires once however often it was re-armed.
func TestEmptyCountsArmedTimers(t *testing.T) {
	var e Engine
	n := 0
	tm := e.NewTimer(func(Time) { n++ })
	if !e.Empty() || e.Step() {
		t.Fatal("an engine with only a disarmed timer is not empty")
	}
	tm.Reset(5)
	if e.Empty() {
		t.Fatal("an armed timer does not count")
	}
	e.Schedule(2, func(Time) {})
	tm.Reset(1)
	tm.Reset(3)
	e.Run()
	if n != 1 || e.Now() != 3 || !e.Empty() {
		t.Fatalf("timer fired %d times, now %d, empty %v; want 1, 3, true", n, e.Now(), e.Empty())
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

// Property: for any tape of Schedule, After, Timer.Reset (earlier, later or
// in the past, armed or not), Step and RunUntil calls on two timers and the
// heap, the engine fires exactly what a reference fires, in the same order
// and at the same times. The reference is the engine's contract written
// plainly: every event and every Reset takes the next sequence number, a
// Reset replaces its timer's pending firing, and the next firing is the
// smallest (time, sequence) among the live ones.
func TestPropertyOrdering(t *testing.T) {
	type ref struct {
		at   Time
		seq  uint64
		id   int
		live bool
	}
	f := func(tape []uint16) bool {
		var e Engine
		var model []*ref
		var seq uint64
		var fired, want []int
		var now Time
		add := func(at Time, id int) *ref {
			at = max(at, now)
			r := &ref{at, seq, id, true}
			seq++
			model = append(model, r)
			return r
		}
		next := func() *ref {
			var best *ref
			for _, r := range model {
				if r.live && (best == nil || r.at < best.at || r.at == best.at && r.seq < best.seq) {
					best = r
				}
			}
			return best
		}
		stepRef := func() bool {
			r := next()
			if r == nil {
				return false
			}
			r.live = false
			now = r.at
			want = append(want, r.id)
			return true
		}
		// Timer firings are recorded as -1 and -2.
		var timers [2]Timer
		var armed [2]*ref
		for i := range timers {
			id := -1 - i
			timers[i] = e.NewTimer(func(Time) { fired = append(fired, id) })
		}
		for _, u := range tape {
			switch arg := int(u >> 3); u % 8 {
			case 0, 1:
				id := len(model)
				e.Schedule(Time(arg%97), func(Time) { fired = append(fired, id) })
				add(Time(arg%97), id)
			case 2:
				id := len(model)
				e.After(Time(arg%13), func(Time) { fired = append(fired, id) })
				add(now+Time(arg%13), id)
			case 3, 4:
				// A Reset lands in the past, at now, or up to 60 later.
				i, at := arg%2, now+Time(arg/2%64)
				if at >= 4 {
					at -= 4
				}
				timers[i].Reset(at)
				if armed[i] != nil {
					armed[i].live = false
				}
				armed[i] = add(at, -1-i)
			case 5, 6:
				if e.Step() != stepRef() || e.Now() != now {
					return false
				}
			case 7:
				deadline := now + Time(arg%40)
				e.RunUntil(deadline)
				for r := next(); r != nil && r.at <= deadline; r = next() {
					stepRef()
				}
				now = max(now, deadline)
				if e.Now() != now {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// A warm engine schedules, re-arms a timer and fires without allocating: the
// heap holds values, the timer lives outside it and the callback is passed
// as it is.
func TestScheduleStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	var e Engine
	fn := func(Time) {}
	tm := e.NewTimer(fn)
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(e.Now() + 100)
		tm.Reset(e.Now() + 3)
		e.After(7, fn)
		e.Step()
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule + Timer.Reset + Step on a warm engine: %.1f allocs/op, want 0", avg)
	}
}
