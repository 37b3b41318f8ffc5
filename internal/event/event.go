// Package event provides the discrete-event simulation engine that drives
// every timed component in the simulator (DRAM channels, ORAM controllers,
// secure buffers, the CPU frontend).
//
// Time is measured in abstract cycles of the fastest clock in the system
// (the CPU clock by convention). Components schedule callbacks at absolute
// cycle times; the engine executes them in time order, with FIFO ordering
// among events scheduled for the same cycle so that simulations are fully
// deterministic.
//
// The queue is a hand-rolled 4-ary min-heap: event dispatch is the hottest
// loop in the simulator, and the flat heap with inlined comparisons is
// substantially faster than container/heap's interface-based one.
//
// A warm engine allocates nothing. Heap items come from an engine-owned free
// list and return to it the moment they are popped, fired or cancelled, so
// an item is reused while handles to its earlier lives may still exist:
// a Handle therefore carries the seq of the event it was issued for, and
// Cancel through a handle whose seq the item no longer bears is a no-op.
// There is one callback shape, Func, which receives the time the engine
// already holds. A component whose completion callback wants the time (a
// DRAM burst end, a link transfer's last beat) hands that callback to
// Schedule as it is instead of wrapping it in a closure that captures it.
package event

// Time is an absolute simulation time in cycles.
type Time uint64

// Func is a callback executed when an event fires; now is the engine's
// clock, which is the scheduled time unless that lay in the past.
type Func func(now Time)

type item struct {
	at   Time
	seq  uint64
	fn   Func
	dead bool
}

// before reports heap ordering: earlier time first, FIFO within a cycle.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	it  *item
	seq uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, also when the engine has since reused
// the event's item for a later one.
func (h Handle) Cancel() {
	if h.it != nil && h.it.seq == h.seq {
		h.it.dead = true
	}
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use at time 0.
type Engine struct {
	now  Time
	seq  uint64
	q    []*item
	free []*item // popped items, reused by Schedule
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (at < Now) fires the event at the current time instead; this arises only
// from zero-latency responses and keeps time monotonic.
func (e *Engine) Schedule(at Time, fn Func) Handle {
	if at < e.now {
		at = e.now
	}
	var it *item
	if n := len(e.free); n > 0 {
		it, e.free = e.free[n-1], e.free[:n-1]
	} else {
		it = new(item)
	}
	*it = item{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.push(it)
	return Handle{it, it.seq}
}

// After registers fn to run delay cycles from now.
func (e *Engine) After(delay Time, fn Func) Handle {
	return e.Schedule(e.now+delay, fn)
}

// Pending reports the number of live events in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, it := range e.q {
		if !it.dead {
			n++
		}
	}
	return n
}

// Empty reports whether no live events remain.
func (e *Engine) Empty() bool { return e.Pending() == 0 }

// Step executes the next event, advancing time to it. It reports whether an
// event was executed (false means the queue was empty).
func (e *Engine) Step() bool {
	for len(e.q) > 0 {
		it := e.pop()
		if it.dead {
			continue
		}
		e.now = it.at
		it.fn(e.now)
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline. Events scheduled exactly at
// the deadline do fire. On return the clock reads deadline if the simulation
// had not already passed it.
func (e *Engine) RunUntil(deadline Time) {
	for {
		it := e.peek()
		if it == nil || it.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events while cond() returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

func (e *Engine) peek() *item {
	for len(e.q) > 0 {
		if e.q[0].dead {
			e.pop()
			continue
		}
		return e.q[0]
	}
	return nil
}

// 4-ary min-heap primitives.

func (e *Engine) push(it *item) {
	q := append(e.q, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.q = q
}

// pop removes the earliest item and puts it on the free list; the caller
// reads it before anything schedules again.
func (e *Engine) pop() *item {
	q := e.q
	top := q[0]
	e.free = append(e.free, top)
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	e.q = q
	n := len(q)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}
