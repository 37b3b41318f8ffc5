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
// The queue is a hand-rolled 4-ary min-heap of values: event dispatch is the
// hottest loop in the simulator, and the flat heap with inlined comparisons
// is substantially faster than container/heap's interface-based one.
//
// A component that keeps one wake-up pending and moves it (a DRAM channel's
// scheduler) owns a Timer, which lives outside the heap: Reset replaces its
// firing in place. Reset takes its sequence number from Schedule's counter,
// and Step fires the earlier by (time, sequence) of the heap top and the
// earliest armed timer, so a timer fires where an event scheduled at its
// Reset would have.
//
// A warm engine allocates nothing. The one callback shape, Func, receives
// the time the engine already holds, so a component whose callback wants it
// (a DRAM burst end, a link transfer's last beat) hands that callback to
// Schedule as it is instead of wrapping it in a closure.
package event

// Time is an absolute simulation time in cycles.
type Time uint64

// Func is a callback executed when an event fires; now is the engine's
// clock, which is the scheduled time unless that lay in the past.
type Func func(now Time)

type item struct {
	at  Time
	seq uint64
	fn  Func
}

// before reports heap ordering: earlier time first, FIFO within a cycle.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// disarmed is the seq of a timer with nothing pending (its time is the
// largest): it orders after every event.
const disarmed = ^uint64(0)

// Timer is a re-armable wake-up owned by its engine: at most one firing is
// pending, and Reset replaces it.
type Timer struct {
	e *Engine
	i int // index in e.timers
}

// NewTimer returns a disarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn Func) Timer {
	e.timers = append(e.timers, item{at: ^Time(0), seq: disarmed, fn: fn})
	e.soon = e.earliestTimer() // the append may have moved the table
	return Timer{e, len(e.timers) - 1}
}

// Reset arms t to fire at at, replacing a pending firing. As with Schedule,
// a time in the past fires at the current time.
func (t Timer) Reset(at Time) {
	e, it := t.e, &t.e.timers[t.i]
	it.at, it.seq = max(at, e.now), e.seq
	e.seq++
	if e.soon == it {
		e.soon = e.earliestTimer()
	} else if it.before(e.soon) {
		e.soon = it
	}
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use at time 0.
type Engine struct {
	now    Time
	seq    uint64
	q      []item
	timers []item // one per Timer, the callback kept while disarmed
	soon   *item  // the earliest of timers, armed or not; nil if none
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (at < Now) fires the event at the current time instead; this arises only
// from zero-latency responses and keeps time monotonic.
func (e *Engine) Schedule(at Time, fn Func) {
	e.push(item{at: max(at, e.now), seq: e.seq, fn: fn})
	e.seq++
}

// After registers fn to run delay cycles from now.
func (e *Engine) After(delay Time, fn Func) {
	e.Schedule(e.now+delay, fn)
}

// Empty reports whether nothing remains to fire.
func (e *Engine) Empty() bool { return e.next() == nil }

// Step executes the next event or timer firing, advancing time to it. It
// reports whether one was executed (false means nothing was pending).
func (e *Engine) Step() bool {
	it := e.next()
	if it == nil {
		return false
	}
	at, fn := it.at, it.fn
	if it == e.soon {
		it.at, it.seq = ^Time(0), disarmed
		e.soon = e.earliestTimer()
	} else {
		e.pop()
	}
	e.now = at
	fn(at)
	return true
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
	for it := e.next(); it != nil && it.at <= deadline; it = e.next() {
		e.Step()
	}
	e.now = max(e.now, deadline)
}

// RunWhile executes events while cond() returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// next returns the earliest pending firing, the heap top or the earliest
// armed timer, or nil.
func (e *Engine) next() *item {
	t := e.soon
	if t != nil && t.seq == disarmed {
		t = nil
	}
	if len(e.q) > 0 && (t == nil || e.q[0].before(t)) {
		return &e.q[0]
	}
	return t
}

func (e *Engine) earliestTimer() *item {
	var soon *item
	for i := range e.timers {
		if t := &e.timers[i]; soon == nil || t.before(soon) {
			soon = t
		}
	}
	return soon
}

// 4-ary min-heap primitives.

func (e *Engine) push(it item) {
	q := append(e.q, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.q = q
}

// pop removes the earliest item.
func (e *Engine) pop() {
	q := e.q
	last := len(q) - 1
	q[0] = q[last]
	q[last] = item{}
	q = q[:last]
	e.q = q
	n := len(q)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
