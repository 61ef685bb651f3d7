package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hetsim/internal/fault"
)

// PanicError is the typed per-job error a worker produces when a job's
// Run function panics: the panic is recovered inside the worker, so one
// crashing job fails its batch with a diagnosable error instead of
// killing the whole process (and every sibling sweep) mid-campaign.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v", e.Value)
}

// ErrJobTimeout marks a job that exceeded Config.JobTimeout.
var ErrJobTimeout = errors.New("sweep: job exceeded its time budget")

// Retryable classifies an error against the engine's taxonomy: a
// panicking job (*PanicError), a job that exceeded its time budget
// (ErrJobTimeout) and a cancelled or expired context are terminal —
// re-running them buys nothing or repeats a crash. Everything else (cache
// write failures, injected transients, I/O hiccups) is transient and
// worth a bounded retry.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrJobTimeout) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *PanicError
	return !errors.As(err, &pe)
}

// RetryPolicy bounds the engine's re-attempts of a transiently failed
// execution and of a failed cache put, with jittered exponential backoff:
// attempt n sleeps Base·2ⁿ scaled by a uniform jitter in [0.5, 1.5),
// capped at Cap. The jitter comes from a stream seeded by Seed, so
// drills replay. The zero policy retries nothing.
type RetryPolicy struct {
	Max  int           // re-attempts after the first try (<= 0 = no retry)
	Base time.Duration // first backoff step
	Cap  time.Duration // backoff ceiling
	Seed uint64        // jitter stream seed (0 is a valid seed)
}

// retrier runs functions under a RetryPolicy with a seeded jitter
// stream; safe for concurrent use.
type retrier struct {
	policy RetryPolicy

	mu  sync.Mutex
	rng uint64
}

func newRetrier(p RetryPolicy) *retrier {
	return &retrier{policy: p, rng: p.Seed}
}

// backoff returns the jittered sleep before re-attempt n (0-based),
// drawing its [0.5, 1.5) factor from the seeded stream.
func (r *retrier) backoff(n int) time.Duration {
	d := r.policy.Base << uint(n)
	if d <= 0 || d > r.policy.Cap {
		d = r.policy.Cap
	}
	r.mu.Lock()
	d = time.Duration(float64(d) * (0.5 + fault.Unit(fault.SplitMix64(&r.rng))))
	r.mu.Unlock()
	return min(d, r.policy.Cap)
}

// do runs fn, re-attempting transient failures until the budget runs
// out; onRetry (optional) observes each re-attempt. It never gives up
// early: its callers are flight leaders, which always run to completion.
func (r *retrier) do(fn func() error, onRetry func()) error {
	for n := 0; ; n++ {
		err := fn()
		if err == nil || !Retryable(err) || n >= r.policy.Max {
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		time.Sleep(r.backoff(n))
	}
}
