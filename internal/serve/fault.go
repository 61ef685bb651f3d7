package serve

import (
	"encoding/json"
	"sync"
	"time"

	"hetsim/internal/fault"
	"hetsim/internal/sweep"
)

// Faults is the service-level fault injector — the chaos discipline of
// internal/fault turned inward on the serving layer itself. It decides,
// deterministically where the drill needs determinism and from a seeded
// splitmix64 stream where a rate is enough, when a simulation runs slow
// and when a request's context is cancelled mid-flight. Cache-write
// failures are the cache's own injector, sweep.WriteFaults, armed on
// Config.Cache (still per key: first N writes fail, plus a rate). A nil
// *Faults is a no-op on every decision, so a clean server pays nothing.
type Faults struct {
	// Seed feeds the splitmix64 stream behind the rate-based decisions.
	Seed uint64
	// SlowEvery makes every Nth execution sleep SlowDelay before the
	// simulation (0 disables) — the knob behind queue-pressure, deadline
	// and dedup-under-latency drills.
	SlowEvery int
	SlowDelay time.Duration
	// CancelRate cancels a request's wait mid-flight at this rate (0
	// disables): the waiter gets a cancellation error; the simulation it
	// was waiting on is never cancelled and still lands in the cache.
	CancelRate float64
	// CancelAfter delays an injected cancellation (default: immediate).
	CancelAfter time.Duration

	mu     sync.Mutex
	rng    uint64
	seeded bool
	execs  int
}

// roll draws a uniform [0,1) decision from the seeded stream.
func (f *Faults) roll() float64 {
	if !f.seeded {
		f.rng, f.seeded = f.Seed, true
	}
	return fault.Unit(fault.SplitMix64(&f.rng))
}

// SlowJob reports how long the next execution should stall (0 = run at
// full speed).
func (f *Faults) SlowJob() time.Duration {
	if f == nil || f.SlowEvery <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.execs++
	if f.execs%f.SlowEvery == 0 {
		return f.SlowDelay
	}
	return 0
}

// slow wraps a job's Run so that each execution first stalls for SlowJob,
// holding a worker slot and its time budget as a slow simulation would.
func (f *Faults) slow(j sweep.Job[json.RawMessage]) sweep.Job[json.RawMessage] {
	if f == nil || f.SlowEvery <= 0 {
		return j
	}
	run := j.Run
	j.Run = func() (json.RawMessage, error) {
		time.Sleep(f.SlowJob())
		return run()
	}
	return j
}

// CancelRequest reports whether this request's wait should be cancelled
// mid-flight, and after how long.
func (f *Faults) CancelRequest() (time.Duration, bool) {
	if f == nil || f.CancelRate <= 0 {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.roll() < f.CancelRate {
		return f.CancelAfter, true
	}
	return 0, false
}
