package serve

import (
	"sync"
	"time"
)

// limiter is the per-tenant admission policy: a token bucket (sustained
// rate + burst) plus an in-flight quota. Buckets are created lazily per
// tenant and refill continuously; a drained bucket yields the wait until
// the next token, which the server surfaces as Retry-After.
type limiter struct {
	rate  float64 // tokens per second; <= 0 disables rate limiting
	burst float64 // bucket capacity
	quota int     // max in-flight requests per tenant; <= 0 disables

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test seam
}

type bucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

func newLimiter(rate float64, burst, quota int) *limiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &limiter{rate: rate, burst: b, quota: quota,
		buckets: make(map[string]*bucket), now: time.Now}
}

// admitN charges n in-flight slots and n rate tokens to the tenant as
// one all-or-nothing decision: a batch counts as its whole job list, so
// packaging points into one request never sidesteps a tenant's budget.
// The in-flight quota is strict — a batch that cannot fit is refused
// whole (wait 0: retry once in-flight work completes). The rate bucket
// instead admits on at least one available token and lets the charge
// drive it negative: a bucket whose burst can never hold n tokens would
// otherwise refuse the batch forever, while the overdraft pushes the
// tenant's next admission out by the full n/rate — the long-run rate
// holds exactly. On success the caller must releaseN(tenant, n); on
// refusal retryAfter is the wait after which a retry can succeed.
func (l *limiter) admitN(tenant string, n int) (retryAfter time.Duration, ok bool) {
	if l == nil {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: l.burst, last: l.now()}
		l.buckets[tenant] = b
	}
	if l.quota > 0 && b.inflight+n > l.quota {
		return 0, false
	}
	if l.rate > 0 {
		now := l.now()
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
		if b.tokens < 1 {
			return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
		}
		b.tokens -= float64(n)
	}
	b.inflight += n
	return 0, true
}

// releaseN returns n of the tenant's in-flight slots.
func (l *limiter) releaseN(tenant string, n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.buckets[tenant]; b != nil {
		b.inflight -= n
		if b.inflight < 0 {
			b.inflight = 0
		}
	}
}
