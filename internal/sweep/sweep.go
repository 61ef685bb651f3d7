// Package sweep is the deterministic parallel job scheduler behind the
// paper reproduction: every simulation the evaluation needs (a kernel on
// a configuration, an ablation variant, an offload study point) becomes a
// self-describing Job with a stable content key, a worker pool fans the
// jobs out across goroutines, and results are committed in submission
// order — so every table and figure rendered from the results is
// byte-identical to a serial run, at any worker count.
//
// On top of the pool sits a content-addressed run cache (cache.go):
// completed jobs are memoized on disk under a hash of their key — for the
// campaign, the job's spec (study, kernel, parameters, seed,
// configuration) plus the checked-in model fingerprint — so a repeat
// invocation, or a single re-rendered figure after a full run, skips
// already-simulated points entirely without building anything. The cache
// is also the one store a killed campaign resumes from: Put commits each
// entry by temp file, fsync and rename, so rerunning the same command
// serves every entry committed before the kill and simulates the rest.
// A Cache pays for each entry once per process: a validated entry stays
// resident in memory, so a repeat read touches no file, and only the
// first Put creates the fanout directories and fsyncs the cache root.
//
// One engine is one completion path: every job claimed by any of its
// concurrent Run and RunNotify calls passes through its single-flight
// layer, whose leader reads the cache, else takes one of the Workers
// slots to execute the job, then puts the result. cmd/hetsimd serves
// every batch on one engine, so one point asked for twice is simulated
// once.
//
// The scheduler itself never inspects results: values only need to
// round-trip through encoding/json (Go's float64 encoding is exact, so
// cached results are bit-identical to fresh ones).
//
// The runtime is hardened for long campaigns: a panicking job is
// recovered into a typed *PanicError that fails its batch without killing
// the process, Config.JobTimeout bounds each job, Config.Retry re-attempts
// transient failures (retry.go), and Config.Context threads cancellation
// through every Run so SIGINT drains in-flight work and flushes partial
// state instead of corrupting it.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Version names the on-disk format of cache entries and journals; bump it
// only when that format changes. Model changes need no bump: the campaign
// and chaos job keys carry the model fingerprint (paper.ModelFingerprint),
// which hashes the campaign goldens, the chaos drill golden and the
// campaign's content keys, and which a test keeps equal to the tree. A
// changed program, input, cluster, fault model or recovery runtime
// therefore asks for new keys and never meets an old entry.
// History: 2 — fault-injection knobs entered the content keys (chaos
// campaigns) and the memory system gained SEU hooks.
const Version = 2

// Job is one unit of work: a stable content key plus the function that
// computes the result. T must round-trip through encoding/json; Run is
// only called on a cache miss.
type Job[T any] struct {
	Key string
	Run func() (T, error)
}

// Event reports one completed job to the Progress callback.
type Event struct {
	Done   int    // jobs finished in the current batch (including this one)
	Total  int    // jobs in the current batch
	Cached int    // batch jobs served from the cache so far
	Key    string // key of the job that just finished
	Hit    bool   // whether this job was a cache hit
}

// Config shapes an Engine.
type Config struct {
	// Workers bounds executions across all concurrent Run and RunNotify
	// calls; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes completed jobs on disk (nil disables caching).
	Cache *Cache
	// Progress, when set, is called after every completed job. Callbacks
	// may arrive from any worker goroutine, but never concurrently.
	Progress func(Event)
	// Context, when set, threads cancellation through every Run: once it
	// is done, workers stop claiming new jobs, in-flight jobs finish (and
	// still land in the cache), and Run returns the context's error. This
	// is how SIGINT on cmd/hetexp drains a campaign cleanly instead of
	// killing it mid-write. Nil means never cancelled. RunNotify takes
	// its own context instead.
	Context context.Context
	// JobTimeout bounds each job's Run call (0 = unbounded). A job that
	// exceeds it fails with ErrJobTimeout; its goroutine is abandoned (the
	// simulator's own MaxCycles bound eventually ends it) and its late
	// result is discarded, never cached.
	JobTimeout time.Duration
	// Retry bounds the re-attempts of a transiently failed execution and,
	// counted apart, of a failed cache put (zero = no retry).
	Retry RetryPolicy
}

// Stats counts what an engine has done across all Run batches.
type Stats struct {
	Jobs        int // jobs scheduled
	Executed    int // jobs actually simulated (they led their key's flight on a cache miss)
	CacheHits   int // jobs served from the cache, directly or through a shared flight
	ExecRetries int // re-attempts of transiently failed executions
	PutRetries  int // re-attempts of failed cache puts
	PutFailures int // cache puts that failed even after retry (a future miss)
}

// Engine is a reusable scheduler: one engine typically serves every sweep
// of a tool invocation, so its Stats aggregate the whole run.
type Engine struct {
	workers  int
	cache    *Cache
	progress func(Event)
	ctx      context.Context
	timeout  time.Duration
	retry    *retrier
	slots    chan struct{} // one token per executing flight leader
	flight   Flight[outcome]

	mu    sync.Mutex
	stats Stats
}

// outcome is what a flight publishes: a pointer to the leader's value,
// boxed because one engine serves every result type (a pointer boxes
// without a copy), and whether the cache served it.
type outcome struct {
	val any
	hit bool
}

// New builds an engine from the config.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Engine{workers: w, cache: cfg.Cache, progress: cfg.Progress, ctx: ctx,
		timeout: cfg.JobTimeout, retry: newRetrier(cfg.Retry), slots: make(chan struct{}, w)}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cache }

// Context returns the engine's cancellation context (never nil), so
// multi-batch drivers like the chaos campaign can stop scheduling new
// batches as soon as the engine is cancelled.
func (e *Engine) Context() context.Context { return e.ctx }

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Flights snapshots the engine's flight traffic, counted on joining: a
// live view of coalescing that also counts waiters which later detach.
func (e *Engine) Flights() FlightStats { return e.flight.Stats() }

// bump increments one of the engine's counters.
func (e *Engine) bump(n *int) {
	e.mu.Lock()
	*n++
	e.mu.Unlock()
}

// exec runs one job with the worker-side guards: a recover() that turns a
// panic into a *PanicError, and — when the engine has a JobTimeout — a
// watchdog that abandons the job's goroutine and fails it with
// ErrJobTimeout. A timed-out job's late result is discarded (the buffered
// channel keeps its goroutine from leaking on send) and never cached.
func exec[T any](e *Engine, j Job[T]) (T, error) {
	if e.timeout <= 0 {
		return runRecover(j)
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := runRecover(j)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timer.C:
		var zero T
		return zero, ErrJobTimeout
	}
}

// runRecover invokes the job, converting a panic into a *PanicError.
func runRecover[T any](j Job[T]) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return j.Run()
}

// lead is a flight leader's work: serve the job from the cache, else
// execute it under one of the engine's worker slots and cache the
// result, each step under the RetryPolicy. The slot covers the execution
// only: a cache hit takes none, and a put (its fsyncs, its retry
// backoff) never keeps another job's execution from starting. A put that
// still fails is a future miss.
func lead[T any](e *Engine, j Job[T]) (outcome, error) {
	var v T
	if e.cache != nil && e.cache.Get(j.Key, &v) {
		return outcome{val: &v, hit: true}, nil
	}
	e.slots <- struct{}{}
	err := e.retry.do(func() (err error) {
		v, err = exec(e, j)
		return err
	}, func() { e.bump(&e.stats.ExecRetries) })
	<-e.slots
	if err != nil {
		return outcome{}, err
	}
	if e.cache != nil {
		put := func() error { return e.cache.Put(j.Key, v) }
		if e.retry.do(put, func() { e.bump(&e.stats.PutRetries) }) != nil {
			e.bump(&e.stats.PutFailures)
		}
	}
	return outcome{val: &v}, nil
}

// resolve completes one claimed job through the engine's flight: the
// first claimant of a key leads and always runs to completion; a later
// one, from any call, shares its outcome or detaches when ctx ends. A
// shared value of another result type fails the waiter, never panics it.
func resolve[T any](e *Engine, ctx context.Context, j Job[T]) (v T, hit, shared bool, err error) {
	o, err, shared := e.flight.Do(ctx, j.Key, func() (outcome, error) { return lead(e, j) })
	if err != nil {
		return v, false, shared, err
	}
	p, ok := o.val.(*T)
	if !ok {
		return v, false, shared, fmt.Errorf("sweep: job %q shares a %T result, want %T", j.Key, o.val, p)
	}
	return *p, o.hit, shared, nil
}

// Completion reports one finished job to a RunNotify consumer.
type Completion[T any] struct {
	Index  int    // position in the submitted job slice
	Key    string // the job's content key
	Value  T      // the result; zero when Err != nil
	Err    error  // the job's typed error, nil on success
	Hit    bool   // served from the cache, not simulated
	Shared bool   // joined another claimant's flight instead of leading its own
}

// RunNotify executes jobs on the engine like Run, but delivers every
// outcome to notify the moment it lands — in completion order, serialized
// (also across concurrent calls), from worker goroutines — and keeps
// claiming after individual failures: the consumer owns the per-job
// failure policy, which is what a streaming batch endpoint needs. The end
// of ctx is the only early stop: workers stop claiming, a job waiting on
// another claimant's flight detaches with ctx's error, jobs that lead
// their flight finish — still notified, still cached — and RunNotify
// returns the context error; jobs never claimed are never notified, so
// the caller can enumerate them as the resumable remainder. notify must
// not call back into the engine.
func RunNotify[T any](e *Engine, ctx context.Context, jobs []Job[T], notify func(Completion[T])) error {
	run(e, ctx, jobs, notify)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep: batch cancelled: %w", err)
	}
	return nil
}

// Run executes the batch on the engine's worker pool and returns the
// results indexed exactly like jobs — the ordering guarantee every
// renderer depends on. Workers claim jobs in submission order; on a
// failure the pool stops claiming new jobs, finishes what is in flight,
// and returns the failed job's error (the lowest-indexed one when several
// fail). A panicking job is recovered into a *PanicError and fails the
// batch the same way — its siblings complete, the process survives. When
// the engine's Context is cancelled, workers stop claiming, in-flight
// jobs finish (and still land in the cache), and Run returns the context
// error. Successful results of a failed or cancelled batch are discarded.
func Run[T any](e *Engine, jobs []Job[T]) ([]T, error) {
	// The first failure cancels the batch's own context, which is what
	// stops the pool claiming; the engine's context stays untouched.
	ctx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	results := make([]T, len(jobs))
	failed, ferr := -1, error(nil)
	run(e, ctx, jobs, func(c Completion[T]) {
		results[c.Index] = c.Value
		// A waiter the batch's own cut detached did not fail.
		if c.Err != nil && c.Err != ctx.Err() && (failed < 0 || c.Index < failed) {
			failed, ferr = c.Index, c.Err
			cancel()
		}
	})
	if failed >= 0 {
		return nil, fmt.Errorf("sweep: job %q: %w", jobs[failed].Key, ferr)
	}
	if err := e.ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: batch cancelled: %w", err)
	}
	return results, nil
}

// run is the one worker loop behind Run and RunNotify. Workers claim jobs
// in submission order until ctx ends and complete each through resolve.
// The Stats counts, deliver and the Progress event then follow under
// e.mu, so deliver and Progress are serialized, also across concurrent
// calls, and arrive in Done order; neither may call back into the engine.
// run returns once every claimed job has been delivered.
func run[T any](e *Engine, ctx context.Context, jobs []Job[T], deliver func(Completion[T])) {
	n := len(jobs)
	var (
		next   atomic.Int64 // next job index to claim
		wg     sync.WaitGroup
		done   int // guarded by e.mu, batch-local
		cached int // guarded by e.mu, batch-local
	)
	next.Store(-1)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1))
			if i >= n || ctx.Err() != nil {
				return
			}
			c := Completion[T]{Index: i, Key: jobs[i].Key}
			c.Value, c.Hit, c.Shared, c.Err = resolve(e, ctx, jobs[i])
			e.mu.Lock()
			done++
			switch {
			case c.Hit:
				cached++
				e.stats.CacheHits++
			case !c.Shared:
				e.stats.Executed++
			}
			e.stats.Jobs++
			if deliver != nil {
				deliver(c)
			}
			if e.progress != nil {
				e.progress(Event{Done: done, Total: n, Cached: cached, Key: c.Key, Hit: c.Hit})
			}
			e.mu.Unlock()
		}
	}
	for w := 0; w < min(e.workers, n); w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
}
