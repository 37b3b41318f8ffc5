package fault

import "time"

// RetryPolicy bounds how hard a Transactor fights a faulty link before
// giving up. The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per exchange, including the
	// first (default 8).
	MaxAttempts int
	// Sleep performs the backoff wait. Nil uses time.Sleep; deterministic
	// tests and the chaos harness install a no-op or recording func.
	Sleep func(time.Duration)
}

// The delay before the first retry, which each further retry doubles up to
// maxBackoff. Exchanges are in-process, so the backoff models controller
// turnaround, not network RTTs.
const (
	baseBackoff = 50 * time.Microsecond
	maxBackoff  = 5 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// backoff returns the exponential delay before retry number attempt
// (attempt ≥ 1).
func backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}
