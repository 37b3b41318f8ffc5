package fault

import (
	"errors"
	"fmt"

	"sdimm/internal/seccomm"
	"sdimm/internal/telemetry"
)

// LinkMetrics holds the telemetry counters a Transactor increments
// alongside its local TransactorStats, under the fault.* namespace. A nil
// *LinkMetrics is safe and records nothing.
type LinkMetrics struct {
	Exchanges   *telemetry.Counter
	Retries     *telemetry.Counter
	Retransmits *telemetry.Counter
	Resyncs     *telemetry.Counter
	Abandoned   *telemetry.Counter
}

// NewLinkMetrics resolves the fault.* link counters in reg (labels fold
// into each name, e.g. "sdimm", "3").
func NewLinkMetrics(reg *telemetry.Registry, labels ...string) *LinkMetrics {
	return &LinkMetrics{
		Exchanges:   reg.Counter("fault.exchanges", labels...),
		Retries:     reg.Counter("fault.retries", labels...),
		Retransmits: reg.Counter("fault.retransmits", labels...),
		Resyncs:     reg.Counter("fault.resyncs", labels...),
		Abandoned:   reg.Counter("fault.abandoned", labels...),
	}
}

// NotifyEvent tags one link-recovery event for Transactor.Notify.
type NotifyEvent uint8

const (
	// NotifyRetry is an extra delivery attempt (n = attempt number ≥ 1).
	NotifyRetry NotifyEvent = iota
	// NotifyRetransmit is a device-side ARQ retransmission of a cached
	// response (n = attempt number it occurred on).
	NotifyRetransmit
	// NotifyResync is a post-abandonment counter realignment (n = attempts
	// spent).
	NotifyResync
	// NotifyAbandon is an exchange that exhausted its retry budget (n =
	// attempts spent).
	NotifyAbandon
)

// TransactorStats counts recovery activity on one link.
type TransactorStats struct {
	// Exchanges that completed (including ones resolved by a retry).
	Exchanges uint64
	// Retries is the number of extra attempts spent on faulted exchanges.
	Retries uint64
	// Retransmits counts device-side ARQ retransmissions of a cached
	// response (the host re-sent a frame the device had already served).
	Retransmits uint64
	// Resyncs counts counter realignments after an abandoned exchange.
	Resyncs uint64
	// Abandoned counts exchanges that exhausted the retry budget.
	Abandoned uint64
}

// Transactor runs sealed request/response exchanges between a host session
// and a device handler across an unreliable Link, and owns all recovery:
//
//   - Bounded retry with exponential backoff on any transport fault.
//   - Replay-safe retransmission: a retry rewinds the send counter
//     (seccomm.ResendFrom) and re-seals the identical body, so the wire
//     frame is byte-identical — an observer sees a retransmission, never a
//     second, distinguishable message. Obliviousness is preserved under
//     faults by construction.
//   - Device-side ARQ: the device caches its last sealed response; when it
//     sees a frame diagnosed as a retransmission of the frame it already
//     served (seccomm.ErrReplayed), it re-emits the cached response instead
//     of re-running the handler. Handlers therefore execute at most once
//     per exchange no matter how often the link mangles traffic.
//   - Abandonment resync: when the retry budget is exhausted,
//     seccomm.Resync fast-forwards both receive counters so the next
//     exchange starts clean; abandoned counters become permanently
//     unacceptable (no pad reuse, no replay window).
//
// From the frames alone the host cannot tell a lost request from a lost
// response. The resync is a control transaction that reads the device's
// counters anyway, so before it the transactor checks whether the device
// opened the abandoned request, and reports the answer as
// AbandonedError.Executed: an executed exchange changed the device's state
// and only its response is missing.
type Transactor struct {
	// Host is the CPU endpoint (seals requests, opens responses).
	Host *seccomm.Session
	// Dev is the device endpoint (opens requests, seals responses).
	Dev *seccomm.Session
	// Link transports sealed frames (Perfect{} if nil).
	Link Link
	// Serve is the device application handler: it receives the opened
	// request body and returns the response body. A Serve error aborts the
	// exchange without retry (see AppError).
	Serve func(body []byte) ([]byte, error)
	// Retry bounds the recovery effort (zero value = defaults).
	Retry RetryPolicy
	// Tap, when set, observes every frame put on the link before fault
	// injection: attempt 0 is the original transmission, higher attempts
	// are retransmissions. Tests use it to prove retries are
	// byte-identical. The frame is only valid during the call; observers
	// that retain it must copy (the transactor reuses its frame buffers).
	Tap func(dir Direction, attempt int, frame []byte)
	// Metrics, when set, mirrors the recovery counters into a telemetry
	// registry (see NewLinkMetrics).
	Metrics *LinkMetrics
	// Notify, when set, observes recovery events as they happen (the
	// flight recorder hangs off this): retries, device-side ARQ
	// retransmissions, resyncs, and abandonments. Called from whatever
	// goroutine drives the exchange; implementations must be cheap and
	// must not call back into the transactor.
	Notify func(ev NotifyEvent, n int)

	lastResp []byte
	stats    TransactorStats

	// Reusable per-exchange scratch. One steady-state exchange over the
	// fault-free link performs no heap allocations (TestExchangeZeroAlloc):
	// request seal, device open, response seal, and host open all land in
	// these buffers, and a delivered frame is handed over in oneFrame (an
	// injector's Deliver returns lists of its own, copying frames whenever it
	// mutates or retains them; Serve consumers copy what they keep).
	sendBuf    []byte    // host-sealed request frame
	devRecvBuf []byte    // device-opened request body
	devSealBuf []byte    // device-sealed response frame
	recvBuf    []byte    // host-opened response body (the Exchange result)
	discardBuf []byte    // host opens of surplus duplicate frames
	outBuf     [][]byte  // outbound response frame list
	oneFrame   [1][]byte // the observed-frame list of a fault-free delivery
}

// Stats returns a snapshot of recovery counters.
func (t *Transactor) Stats() TransactorStats { return t.stats }

// Exchange runs one request/response transaction: seal body, deliver,
// serve, deliver the sealed response back, open it. On transport faults it
// retries with backoff up to the policy budget, then realigns counters and
// reports the last fault.
//
// The returned body is transactor-owned scratch, valid only until the next
// Exchange on this transactor; callers that retain it must copy.
func (t *Transactor) Exchange(body []byte) ([]byte, error) {
	p := t.Retry.withDefaults()
	base := t.Host.SendCounter()
	var lastErr error
	used := 0
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		used = attempt + 1
		if attempt > 0 {
			t.stats.Retries++
			if t.Metrics != nil {
				t.Metrics.Retries.Inc()
			}
			if t.Notify != nil {
				t.Notify(NotifyRetry, attempt)
			}
			p.Sleep(backoff(attempt))
			// Rewind so the retry re-seals the identical frame.
			if err := t.Host.ResendFrom(base); err != nil {
				return nil, err
			}
		}
		resp, err := t.attempt(body, attempt)
		if err == nil {
			t.stats.Exchanges++
			if t.Metrics != nil {
				t.Metrics.Exchanges.Inc()
			}
			return resp, nil
		}
		var app *AppError
		if errors.As(err, &app) {
			// The handler ran and failed; the link did its job.
			t.stats.Exchanges++
			if t.Metrics != nil {
				t.Metrics.Exchanges.Inc()
			}
			return nil, err
		}
		lastErr = err
		if errors.Is(err, ErrFailStop) {
			break
		}
	}
	// Abandon the exchange: note whether the device opened the request, then
	// realign both directions so the link is usable for the next one, and
	// drop the cached response (its counter is now unacceptable to the host
	// anyway).
	executed := t.Dev.RecvCounter() > base
	seccomm.Resync(t.Host, t.Dev)
	t.lastResp = nil
	t.stats.Resyncs++
	t.stats.Abandoned++
	if t.Metrics != nil {
		t.Metrics.Resyncs.Inc()
		t.Metrics.Abandoned.Inc()
	}
	if t.Notify != nil {
		t.Notify(NotifyResync, used)
		t.Notify(NotifyAbandon, used)
	}
	return nil, &AbandonedError{Attempts: used, Executed: executed, Err: lastErr}
}

// AbandonedError is an exchange that exhausted its retry budget. Executed
// reports that the device opened the request, so its handler ran and only
// the response was lost; otherwise the request never took effect.
type AbandonedError struct {
	Attempts int
	Executed bool
	Err      error // the last fault
}

func (e *AbandonedError) Error() string {
	return fmt.Sprintf("fault: exchange abandoned after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last fault.
func (e *AbandonedError) Unwrap() error { return e.Err }

// Executed reports whether err carries an abandoned exchange the device
// executed. A nil err returns before anything is allocated.
func Executed(err error) bool {
	if err == nil {
		return false
	}
	var a *AbandonedError
	return errors.As(err, &a) && a.Executed
}

// deliver carries frame across the link. The fault-free link (nil or
// Perfect) delivers exactly that frame, so its one-element list is the
// transactor's own scratch, valid until the next deliver, rather than the
// fresh slice Perfect.Deliver has to return.
func (t *Transactor) deliver(dir Direction, frame []byte) ([][]byte, error) {
	switch t.Link.(type) {
	case nil, Perfect:
		t.oneFrame[0] = frame
		return t.oneFrame[:], nil
	}
	return t.Link.Deliver(dir, frame)
}

func (t *Transactor) tap(dir Direction, attempt int, frame []byte) {
	if t.Tap != nil {
		t.Tap(dir, attempt, frame)
	}
}

// attempt performs one delivery round trip.
func (t *Transactor) attempt(body []byte, attempt int) ([]byte, error) {
	frame := t.Host.SealAppend(t.sendBuf[:0], body)
	t.sendBuf = frame
	t.tap(HostToDev, attempt, frame)
	observed, err := t.deliver(HostToDev, frame)
	if err != nil {
		return nil, err
	}

	// Device side: open every observed frame. Authentic fresh frames are
	// served exactly once; retransmissions of the previously served frame
	// re-emit the cached response; everything else is dropped on the
	// floor (corruption, stale replays).
	outbound := t.outBuf[:0]
	for _, f := range observed {
		opened, err := t.Dev.OpenAppend(t.devRecvBuf[:0], f)
		if err != nil {
			if errors.Is(err, seccomm.ErrReplayed) && t.lastResp != nil {
				t.stats.Retransmits++
				if t.Metrics != nil {
					t.Metrics.Retransmits.Inc()
				}
				if t.Notify != nil {
					t.Notify(NotifyRetransmit, attempt)
				}
				outbound = append(outbound, t.lastResp)
			}
			continue
		}
		t.devRecvBuf = opened
		respBody, err := t.Serve(opened)
		if err != nil {
			t.outBuf = clearFrames(outbound)
			return nil, &AppError{Err: err}
		}
		sealed := t.Dev.SealAppend(t.devSealBuf[:0], respBody)
		t.devSealBuf = sealed
		// Cache the exact wire bytes for ARQ. When a retransmission was
		// already queued this attempt it aliases the old cache, so the new
		// cache must be a fresh buffer rather than an in-place overwrite.
		if len(outbound) > 0 {
			t.lastResp = append([]byte(nil), sealed...)
		} else {
			t.lastResp = append(t.lastResp[:0], sealed...)
		}
		outbound = append(outbound, sealed)
	}

	// Response leg: deliver each outbound frame; the host accepts the
	// first one that authenticates and ignores duplicates.
	var got []byte
	ok := false
	for _, rf := range outbound {
		t.tap(DevToHost, attempt, rf)
		frames, err := t.deliver(DevToHost, rf)
		if err != nil {
			if ok {
				// The host already authenticated a response; losing a
				// surplus frame (ARQ duplicate) cannot fail the exchange.
				// Treating it as a failure would wedge the exchange for
				// good: the host's receive counter has moved on, so no
				// retry could ever be answered.
				break
			}
			t.outBuf = clearFrames(outbound)
			return nil, err
		}
		for _, f := range frames {
			if ok {
				// Surplus frames still go through Open so replay/duplicate
				// accounting matches the non-pooled behaviour exactly.
				if d, derr := t.Host.OpenAppend(t.discardBuf[:0], f); derr == nil {
					t.discardBuf = d
				}
				continue
			}
			opened, err := t.Host.OpenAppend(t.recvBuf[:0], f)
			if err != nil {
				continue
			}
			t.recvBuf = opened
			got = opened
			ok = true
		}
	}
	t.outBuf = clearFrames(outbound)
	if !ok {
		return nil, ErrNoResponse
	}
	return got, nil
}

// clearFrames empties a frame list for reuse without retaining its entries.
func clearFrames(fs [][]byte) [][]byte {
	clear(fs)
	return fs[:0]
}
