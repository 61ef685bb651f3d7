package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hetsim/internal/fault"
	"hetsim/internal/sweep"
)

// RetryPolicy bounds the server-side re-attempts of transient failures
// with jittered exponential backoff: attempt n sleeps Base·2ⁿ scaled by
// a uniform jitter in [0.5, 1.5), capped at Cap. Jitter comes from a
// seeded stream so drills replay.
type RetryPolicy struct {
	Max  int           // re-attempts after the first try (0 = no retry)
	Base time.Duration // first backoff step
	Cap  time.Duration // backoff ceiling
}

// DefaultRetryPolicy is the server default: 3 retries, 25ms–1s backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Max: 3, Base: 25 * time.Millisecond, Cap: time.Second}
}

// Retryable classifies an error against the sweep taxonomy: a panicking
// simulation (*sweep.PanicError), a job that exceeded its time budget
// (sweep.ErrJobTimeout) and a cancelled or expired context are terminal
// — re-running them buys nothing or repeats a crash. Everything else
// (cache write failures, injected transients, I/O hiccups) is transient
// and worth a bounded retry.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, sweep.ErrJobTimeout) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *sweep.PanicError
	return !errors.As(err, &pe)
}

// retrier runs functions under a RetryPolicy with a seeded jitter
// stream; safe for concurrent use.
type retrier struct {
	policy RetryPolicy

	mu  sync.Mutex
	rng uint64
}

func newRetrier(p RetryPolicy, seed uint64) *retrier {
	return &retrier{policy: p, rng: seed}
}

// jitter draws a uniform [0.5, 1.5) factor from the seeded stream.
func (r *retrier) jitter() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return 0.5 + fault.Unit(fault.SplitMix64(&r.rng))
}

// backoff returns the jittered sleep before re-attempt n (0-based).
func (r *retrier) backoff(n int) time.Duration {
	d := r.policy.Base << uint(n)
	if d <= 0 || d > r.policy.Cap {
		d = r.policy.Cap
	}
	d = time.Duration(float64(d) * r.jitter())
	if d > r.policy.Cap {
		d = r.policy.Cap
	}
	return d
}

// do runs fn, re-attempting transient failures until the budget or the
// context runs out; onRetry (optional) observes each re-attempt.
func (r *retrier) do(ctx context.Context, fn func() error, onRetry func()) error {
	var err error
	for n := 0; ; n++ {
		err = fn()
		if err == nil || !Retryable(err) || n >= r.policy.Max {
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		t := time.NewTimer(r.backoff(n))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w (retry abandoned: %v)", err, ctx.Err())
		}
	}
}
