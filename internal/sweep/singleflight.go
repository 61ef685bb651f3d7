package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errFlightAbandoned is published to waiters when a flight leader's
// function panicked out from under them.
var errFlightAbandoned = errors.New("sweep: flight abandoned by a panicking leader")

// Flight coalesces concurrent executions of the same content key: the
// first caller of Do for a key becomes the leader and runs the function;
// every caller that arrives while the leader is in flight becomes a
// waiter and shares the leader's result or its typed error. Every
// Engine owns one, and every job the engine claims passes through it
// (sweep.go's resolve) — so a thundering herd of identical keyed
// requests to the simulation service costs one simulation.
//
// The leader runs the function on its own call stack and always rides it
// to completion: a waiter whose context ends detaches and returns the
// context error, but the execution itself is never cancelled, so the
// shared result still completes (and can still be cached) for everyone
// else. The zero Flight is ready to use.
type Flight[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]

	leads  atomic.Uint64
	shared atomic.Uint64
}

// flightCall is one in-flight execution; done is made by its first
// waiter, if any, and closed once val/err are final, both under Flight.mu.
type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// FlightStats counts flight traffic.
type FlightStats struct {
	Leads  uint64 // executions led (one per distinct in-flight key)
	Shared uint64 // callers that coalesced onto another caller's flight
}

// Stats snapshots the counters.
func (f *Flight[T]) Stats() FlightStats {
	return FlightStats{Leads: f.leads.Load(), Shared: f.shared.Load()}
}

// Do returns the result of fn for key, coalescing concurrent calls: one
// leader executes fn synchronously, duplicates wait for the shared
// outcome. shared reports whether this caller coalesced onto another
// caller's execution. A waiter whose ctx ends before the flight completes
// returns the ctx error; the flight itself is unaffected. The flight is
// deregistered before its result is published, so a call arriving after
// completion starts a fresh execution (and typically hits the cache the
// previous flight populated).
func (f *Flight[T]) Do(ctx context.Context, key string, fn func() (T, error)) (v T, err error, shared bool) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[T])
	}
	if c, ok := f.calls[key]; ok {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		f.mu.Unlock()
		f.shared.Add(1)
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err(), true
		}
	}
	c := &flightCall[T]{}
	f.calls[key] = c
	f.mu.Unlock()
	f.leads.Add(1)
	// Deregister then publish, even if fn panics: waiters must never hang
	// on a flight whose leader died (the engine converts job panics into
	// *PanicError first, so this is a second line of defense — the panic
	// still propagates on the leader, but waiters see a typed error).
	completed := false
	defer func() {
		if !completed {
			c.err = errFlightAbandoned
		}
		f.mu.Lock()
		delete(f.calls, key)
		if c.done != nil {
			close(c.done)
		}
		f.mu.Unlock()
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, c.err, false
}
