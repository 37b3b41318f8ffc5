package serve

import (
	"sync"
	"time"

	"sdimm/internal/queueing"
)

// Admission is the server's tenant-oblivious admission controller. It is
// oblivious *by construction*: Admit receives only the request's deadline
// slack and retry flag — there is no parameter through which a tenant
// identity, connection, or block address could influence the decision, so
// shed decisions depend only on arrival order, queue state, and deadlines
// (TestAdmissionPermutationInvariance pins this).
//
// Three mechanisms bound overload:
//
//   - A queue-depth limit sized by queueing.QueueLimitFor — the smallest
//     M/M/1/K queue whose full-queue probability at utilization rho stays
//     under overflowTarget: 66. Beyond the limit, requests shed instead of
//     queueing into certain deadline misses.
//   - Deadline feasibility: a request whose slack is smaller than the
//     queue's estimated drain time ((depth+1) × an EWMA of recent service
//     times, see Done) is shed on arrival. Accepting it would burn pipeline
//     work on a response the client will discard — the "zero accepted
//     requests miss their deadline" discipline.
//   - A retry token bucket: client retries of shed requests spend tokens
//     that refill at a bounded rate, so retry storms decay geometrically
//     instead of amplifying the overload that caused them.
//
// The advertised queue limit scales with cluster health: Capacity (the mean
// of the members' fault.State CapacityWeight) shrinks the limit while the
// cluster is degraded, recovering, or draining — graceful degradation
// instead of queueing into a slow backend.
type Admission struct {
	mu sync.Mutex

	limit    int     // full-health queue-depth limit K
	depth    int     // admitted, not yet completed
	peak     int     // high-water depth since last SLO snapshot
	closed   bool    // draining: everything sheds with StatusClosing
	svcEWMA  float64 // service seconds per op, exponentially weighted
	tokens   float64 // retry budget
	last     time.Time
	capacity func() float64 // ∈ [0,1]; nil = always 1
	now      func() time.Time
}

// The admission design point, fixed once as the paper fixes its transfer
// queue (Section IV-C): the queue is sized for utilization rho at full-queue
// probability overflowTarget (capped at maxDepth), and client retries spend
// tokens refilled at retryRate per second into a bucket of retryBurst.
const (
	rho            = 0.9
	overflowTarget = 1e-4
	maxDepth       = 4096
	retryRate      = 16
	retryBurst     = 2 * retryRate
)

// AdmissionOptions size an Admission controller.
type AdmissionOptions struct {
	// Capacity reports the cluster's current capacity fraction; nil means
	// full capacity. The server installs the cluster's Capacity.
	Capacity func() float64

	now func() time.Time // the package's tests inject a clock (nil = time.Now)
}

// Decision is an admission outcome.
type Decision int

const (
	// Accepted: execute the request; the caller must pair with Done.
	Accepted Decision = iota
	// ShedOverload: the queue is at its depth limit (or the retry budget
	// is exhausted) — answer StatusShed.
	ShedOverload
	// ShedDeadline: the deadline cannot be met through the current queue —
	// answer StatusDeadline without executing.
	ShedDeadline
	// ShedClosing: the server is draining — answer StatusClosing.
	ShedClosing
)

// NewAdmission builds the controller.
func NewAdmission(o AdmissionOptions) (*Admission, error) {
	if o.now == nil {
		o.now = time.Now
	}
	limit, err := queueing.QueueLimitFor(rho, overflowTarget, maxDepth)
	if err != nil {
		return nil, err
	}
	a := &Admission{
		limit:    limit,
		tokens:   retryBurst,
		capacity: o.Capacity,
		now:      o.now,
	}
	a.last = a.now()
	return a, nil
}

// Limit returns the full-health queue-depth limit.
func (a *Admission) Limit() int { return a.limit }

// effectiveLimit scales the depth limit by current capacity. Any nonzero
// capacity keeps the limit at least 1 — a degraded cluster still serves,
// just less of the queue.
func (a *Admission) effectiveLimit() int {
	cap := 1.0
	if a.capacity != nil {
		cap = a.capacity()
	}
	if cap <= 0 {
		return 0
	}
	l := int(float64(a.limit) * cap)
	if l < 1 {
		l = 1
	}
	return l
}

// Admit decides one request. slack is the time remaining until the
// request's deadline; retry marks a client retry of a previously shed
// request. On Accepted the caller must call Done(elapsed) exactly once when
// the request completes.
func (a *Admission) Admit(slack time.Duration, retry bool) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ShedClosing
	}
	now := a.now()
	a.tokens = min(a.tokens+now.Sub(a.last).Seconds()*retryRate, retryBurst)
	a.last = now

	if retry {
		if a.tokens < 1 {
			return ShedOverload
		}
		a.tokens--
	}
	if a.depth >= a.effectiveLimit() {
		return ShedOverload
	}
	// Deadline feasibility: the request waits behind ~depth ops, each
	// taking ~svcEWMA. If that drain time already exceeds the slack, the
	// response would arrive dead — shed now, cheaply.
	if a.svcEWMA > 0 && slack > 0 {
		wait := time.Duration(float64(a.depth+1) * a.svcEWMA * float64(time.Second))
		if wait > slack {
			return ShedDeadline
		}
	}
	a.depth++
	if a.depth > a.peak {
		a.peak = a.depth
	}
	return Accepted
}

// Done completes one accepted request. elapsed is its sojourn (wait plus
// service), about depth service times, so the drain-time estimate is fed
// elapsed over the depth the request completed at: one service time.
func (a *Admission) Done(elapsed time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := elapsed.Seconds() / float64(max(a.depth, 1))
	if a.depth > 0 {
		a.depth--
	}
	if s > 0 {
		const alpha = 0.1
		if a.svcEWMA == 0 {
			a.svcEWMA = s
		} else {
			a.svcEWMA = (1-alpha)*a.svcEWMA + alpha*s
		}
	}
}

// Depth returns the current admitted-but-incomplete count.
func (a *Admission) Depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.depth
}

// PeakDepth returns and resets the high-water depth.
func (a *Admission) PeakDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.peak
	a.peak = a.depth
	return p
}

// Pressure reports whether the queue is past its backpressure watermark
// (half the effective limit) — connections should shrink their credit
// windows.
func (a *Admission) Pressure() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.depth >= (a.effectiveLimit()+1)/2
}

// Close moves the controller into draining: every subsequent Admit returns
// ShedClosing. Idempotent.
func (a *Admission) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
}
