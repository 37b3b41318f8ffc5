package fault

import (
	"errors"
	"sync"
)

// State is an SDIMM's health as seen by the host.
type State int

const (
	// Healthy: recent exchanges succeed.
	Healthy State = iota
	// Degraded: degradeAfter consecutive exchanges failed; the SDIMM is
	// still addressed (the faults may be transient) but operators should
	// look at it.
	Degraded
	// Failed: the SDIMM fail-stopped (or crossed FailAfter consecutive
	// failures). Failed is sticky — the host stops routing to it.
	Failed
	// Recovering: the SDIMM came back from a restart and is in post-recovery
	// probation. It is addressed normally (it is not Failed), but operators
	// can tell restart probation apart from in-flight link backoff
	// (Degraded). The first successful exchange promotes it to Healthy.
	Recovering
	// Draining: the SDIMM is being rebalanced away from. It still serves
	// exchanges (migration reads look like ordinary accesses), but the host
	// excludes it from new-leaf placement so its real blocks converge onto
	// the rest of the cluster. Successes do not promote a Draining SDIMM
	// back to Healthy — only an explicit CancelDraining or the terminal
	// MarkRemoved ends a drain.
	Draining
	// Removed: the SDIMM was detached after a completed drain (or replaced
	// by a joining member). Removed is sticky and terminal; the host never
	// routes to a Removed slot.
	Removed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	case Draining:
		return "draining"
	case Removed:
		return "removed"
	default:
		return "failed"
	}
}

// CapacityWeight maps a health state to the fraction of the member's
// nominal serving capacity an admission layer should keep advertising for
// it. This is the serving front end's degradation ladder: a Recovering or
// Degraded member is addressed but at half weight (its next exchanges may
// retry or re-probe), a Draining member keeps only a sliver (it serves
// reads but is excluded from placement, so it converges to dummy traffic),
// and Failed/Removed members contribute nothing. Shrinking advertised
// capacity turns a sick member into early backpressure on clients instead
// of late timeouts.
func (s State) CapacityWeight() float64 {
	switch s {
	case Healthy:
		return 1.0
	case Degraded, Recovering:
		return 0.5
	case Draining:
		return 0.25
	default: // Failed, Removed
		return 0
	}
}

// Health tracks one SDIMM's consecutive-failure state machine:
// Healthy → (degradeAfter consecutive failures) → Degraded → (success) →
// Healthy; ErrFailStop → Failed (sticky). Health is safe for concurrent use.
type Health struct {
	mu           sync.Mutex
	degradeAfter int
	consecutive  int
	state        State
	successes    uint64
	failures     uint64
	lastErr      error
	observer     func(from, to State)
}

// NewHealth builds a tracker. degradeAfter ≤ 0 defaults to 3; only an
// explicit fail-stop marks the SDIMM Failed.
func NewHealth(degradeAfter int) *Health {
	if degradeAfter <= 0 {
		degradeAfter = 3
	}
	return &Health{degradeAfter: degradeAfter}
}

// SetObserver registers a callback invoked on every state transition. It
// runs under the tracker's lock, so observers see transitions in the exact
// order they happened and must not call back into the Health.
func (h *Health) SetObserver(fn func(from, to State)) {
	h.mu.Lock()
	h.observer = fn
	h.mu.Unlock()
}

// setState transitions the machine and notifies the observer. Caller holds
// the lock.
func (h *Health) setState(to State) {
	from := h.state
	if from == to {
		return
	}
	h.state = to
	if h.observer != nil {
		h.observer(from, to)
	}
}

// Success records a completed exchange. A Degraded SDIMM recovers to
// Healthy; a Failed one stays Failed. A Draining SDIMM stays Draining:
// migration traffic succeeding is expected and must not resurrect the
// member into the placement pool.
func (h *Health) Success() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.successes++
	if h.state == Failed || h.state == Removed {
		return
	}
	h.consecutive = 0
	if h.state == Draining {
		return
	}
	h.setState(Healthy)
}

// Failure records a failed exchange and advances the state machine.
func (h *Health) Failure(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures++
	h.consecutive++
	h.lastErr = err
	if h.state == Failed || h.state == Removed {
		return
	}
	// A Draining member that fail-stops mid-drain becomes Failed (the drain
	// can no longer complete obliviously; recovery poisons what was left).
	// Transient failures during a drain do not demote it to Degraded — the
	// member is already excluded from placement, and the drain loop retries.
	if h.state == Draining {
		if errors.Is(err, ErrFailStop) {
			h.setState(Failed)
		}
		return
	}
	switch {
	case errors.Is(err, ErrFailStop):
		h.setState(Failed)
	case h.consecutive >= h.degradeAfter:
		h.setState(Degraded)
	}
}

// MarkDraining starts a rebalance drain: the member keeps serving
// exchanges but is excluded from new-leaf placement. Failed and Removed
// stay sticky; MarkDraining reports whether the transition (or no-op
// re-entry into Draining) was possible.
func (h *Health) MarkDraining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Failed || h.state == Removed {
		return false
	}
	h.consecutive = 0
	h.setState(Draining)
	return true
}

// CancelDraining aborts a drain in progress, returning the member to the
// placement pool (as Healthy). Only a Draining member can be cancelled.
func (h *Health) CancelDraining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Draining {
		return false
	}
	h.consecutive = 0
	h.setState(Healthy)
	return true
}

// MarkRemoved retires the member after a completed drain (or a
// replacement join). Removed is terminal and sticky.
func (h *Health) MarkRemoved() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setState(Removed)
}

// MarkRecovering puts a non-Failed SDIMM into post-restart probation: the
// consecutive-failure streak resets (the pre-crash streak says nothing
// about the restarted process) and the state machine reports Recovering
// until the first successful exchange. Failed and Removed stay sticky,
// and Draining is preserved: a restarted drain is still a drain, and
// demoting it to Recovering would put the member back in the placement
// pool on its first success.
func (h *Health) MarkRecovering() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Failed || h.state == Removed {
		return
	}
	h.consecutive = 0
	if h.state == Draining {
		return
	}
	h.setState(Recovering)
}

// Restore loads a state snapshot from a durability checkpoint. The
// transition to the restored state fires the observer, so gauges and
// transition counters attached after construction stay exact.
func (h *Health) Restore(st State, consecutive int, successes, failures uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecutive = consecutive
	h.successes = successes
	h.failures = failures
	h.setState(st)
}

// MarkFailed forces the sticky Failed state (fail-stop observed out of
// band).
func (h *Health) MarkFailed(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setState(Failed)
	if err != nil {
		h.lastErr = err
	}
}

// State returns the current state.
func (h *Health) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Consecutive returns the current consecutive-failure streak.
func (h *Health) Consecutive() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consecutive
}

// Totals returns lifetime success and failure counts.
func (h *Health) Totals() (successes, failures uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.successes, h.failures
}

// LastError returns the most recent failure cause (nil if none).
func (h *Health) LastError() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}
