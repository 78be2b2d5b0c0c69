// Package resilience is the live protocol's fault-tolerance toolkit: a
// retry policy with jittered exponential backoff (retry.go), per-peer
// circuit breakers (breaker.go), and a fault-injection dialer for
// chaos-testing the real TCP path (faultdial.go).
//
// The package is transport-agnostic and deliberately free of node-protocol
// types: internal/node plumbs its send/roundTrip/report paths through these
// primitives, and tests drive them directly. All exported types are safe for
// concurrent use unless noted otherwise.
package resilience

import (
	"errors"
	"sync"
	"time"

	"hirep/internal/xrand"
)

// Retry defaults, chosen so a transient single-connection failure is ridden
// out in well under a second while a dead peer costs at most a few seconds
// before the circuit breaker takes over.
const (
	defaultAttempts   = 3
	defaultBaseDelay  = 50 * time.Millisecond
	defaultMaxDelay   = 2 * time.Second
	defaultMultiplier = 2.0
	defaultJitter     = 0.5
)

// RetryPolicy describes how an operation is retried. The zero value means
// "use the defaults"; set Attempts to 1 to disable retries entirely.
type RetryPolicy struct {
	// Attempts is the total number of tries (first attempt included).
	Attempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier is the per-retry backoff growth factor (>= 1).
	Multiplier float64
	// Jitter in (0,1] spreads each delay uniformly over
	// [d*(1-Jitter), d*(1+Jitter)] so synchronized retries from many peers
	// do not re-collide. Zero means the default; use a tiny value to get
	// effectively fixed delays.
	Jitter float64
	// PerAttempt bounds each individual try; 0 lets the caller pick its own
	// per-attempt deadline (the node uses its request timeout).
	PerAttempt time.Duration
}

// Normalized returns the policy with zero fields replaced by defaults.
func (p RetryPolicy) Normalized() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = defaultAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = defaultMultiplier
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = defaultJitter
	}
	return p
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so a Retrier stops immediately instead of retrying.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Retrier executes operations under a RetryPolicy with deterministic,
// seedable jitter. It is safe for concurrent use; concurrent Do calls share
// the jitter stream but each call's backoff schedule stays within the
// policy's bounds.
type Retrier struct {
	policy RetryPolicy

	// OnRetry, when set, is called before each re-attempt with the 1-based
	// number of the attempt that just failed and its error. Set once before
	// use; the node wires it to a metrics counter.
	OnRetry func(attempt int, err error)

	// sleep is the backoff clock, swapped out by tests.
	sleep func(time.Duration)

	mu  sync.Mutex
	rng *xrand.RNG
}

// NewRetrier builds a Retrier for policy. seed drives the jitter stream;
// runs with equal seeds and equal call sequences back off identically, which
// keeps chaos tests reproducible.
func NewRetrier(policy RetryPolicy, seed int64) *Retrier {
	return &Retrier{
		policy: policy.Normalized(),
		sleep:  time.Sleep,
		rng:    xrand.New(seed),
	}
}

// Policy returns the normalized policy the retrier runs.
func (r *Retrier) Policy() RetryPolicy { return r.policy }

// Delay returns the jittered backoff before retry number retry (0-based).
func (r *Retrier) Delay(retry int) time.Duration {
	d := float64(r.policy.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= r.policy.Multiplier
		if d >= float64(r.policy.MaxDelay) {
			d = float64(r.policy.MaxDelay)
			break
		}
	}
	if d > float64(r.policy.MaxDelay) {
		d = float64(r.policy.MaxDelay)
	}
	if j := r.policy.Jitter; j > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		d *= 1 - j + 2*j*u
	}
	return time.Duration(d)
}

// Do runs fn until it succeeds, returns a Permanent error, or the policy's
// attempts are exhausted; the last error is returned. fn receives the
// 0-based attempt index and the policy's per-attempt deadline (0 when the
// policy does not set one).
func (r *Retrier) Do(fn func(attempt int, perAttempt time.Duration) error) error {
	return r.DoMax(0, fn)
}

// DoMax is Do with the attempt budget overridden (attempts <= 0 uses the
// policy's). Probes use DoMax(1, ...) for a single unretried try that still
// shares the policy's per-attempt deadline.
func (r *Retrier) DoMax(attempts int, fn func(attempt int, perAttempt time.Duration) error) error {
	if attempts <= 0 {
		attempts = r.policy.Attempts
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.sleep(r.Delay(a - 1))
		}
		err = fn(a, r.policy.PerAttempt)
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if a+1 < attempts && r.OnRetry != nil {
			r.OnRetry(a+1, err)
		}
	}
	return err
}
