// hetsimd is the simulation service: a long-running HTTP/JSON server
// (internal/serve) where clients submit content-keyed simulation jobs of
// the paper sweep and a million identical requests cost one simulation —
// every batch runs on one sweep engine, whose single-flight dedup and -j
// worker slots all clients share, backed by the content-addressed run
// cache.
//
// Usage:
//
//	hetsimd [-addr :9966] [-cache-dir DIR] [-no-cache] [-scrub=false] [-j N]
//	        [-queue N] [-job-timeout D] [-retries N] [-retry-base D]
//	        [-rate R] [-burst N]
//	        [-tenant-quota N] [-drain-timeout D] [-heartbeat D] [-seed N]
//	        [-fault-slow-every N] [-fault-slow D] [-fault-cachefail-first N]
//	        [-fault-cachefail RATE] [-fault-cancel RATE] [-fault-seed N]
//
// At startup the run cache is scrubbed (-scrub=false skips it): leftover
// temp files and torn entries from a killed predecessor are quarantined
// under .quarantine/ and the report lands on stderr and in /v1/stats.
//
// Endpoints: POST /v1/batch, the one submission path (paper.BatchRequest
// → streamed NDJSON paper.BatchRecords: per-job completions as they
// land, each naming its point by index in the submitted spec list and
// carrying no key, heartbeats every -heartbeat so proxies keep idle
// streams alive, a resumable cursor of the uncompleted keys when a batch
// is cut, a terminal summary; a single point is a one-spec batch), GET /v1/stats, GET /healthz (liveness),
// GET /readyz (readiness — flips to 503 the moment a drain starts).
// Overload answers 429 with Retry-After; per-tenant token buckets
// (-rate/-burst) and in-flight quotas (-tenant-quota) keep one tenant
// from starving the rest — a batch is charged its full job count.
//
// SIGTERM/SIGINT drains gracefully: admission stops, in-flight jobs
// finish and checkpoint into the fsynced cache, batch streams end with a
// cursor naming their uncompleted points, then the server exits 0
// (or 1 if the drain ran out of -drain-timeout). A second signal
// force-exits with status 3 instead of waiting on a wedged job.
//
// The -fault-* flags turn the chaos discipline inward for drills: seeded
// slow jobs and mid-request cancellations injected into the serving path
// itself, and cache-write failures injected into the run cache's own
// write path (first N writes of every key, plus a rate), which the
// engine's put retry rides out (see `make serve-drill`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"hetsim/internal/cli"
	"hetsim/internal/serve"
	"hetsim/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":9966", "listen address")
	cacheDir := flag.String("cache-dir", cli.DefaultCacheDir(), "run-cache directory (empty disables persistence)")
	noCache := flag.Bool("no-cache", false, "disable the run cache")
	scrub := flag.Bool("scrub", true, "scrub the cache at startup (quarantine corrupt entries and leftover temp files)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	queue := flag.Int("queue", 0, "admission queue bound (0 = 8x workers)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-simulation time budget (0 = unbounded)")
	retries := flag.Int("retries", 3, "transient-failure retry budget")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "first retry backoff step")
	rate := flag.Float64("rate", 0, "per-tenant sustained requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-tenant burst size (0 = max(1, rate))")
	tenantQuota := flag.Int("tenant-quota", 0, "per-tenant in-flight request cap (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget after the first signal")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "keepalive cadence of idle /v1/batch streams")
	seed := flag.Uint64("seed", 1, "retry-jitter seed")
	fSlowEvery := flag.Int("fault-slow-every", 0, "inject: every Nth execution runs slow (0 = off)")
	fSlow := flag.Duration("fault-slow", 50*time.Millisecond, "inject: slow-job delay")
	fCacheFirst := flag.Int("fault-cachefail-first", 0, "inject: fail the first N cache writes per key")
	fCacheRate := flag.Float64("fault-cachefail", 0, "inject: cache-write failure rate")
	fCancel := flag.Float64("fault-cancel", 0, "inject: mid-request cancellation rate")
	fSeed := flag.Uint64("fault-seed", 1, "inject: fault-stream seed")
	flag.Parse()

	var cache *sweep.Cache
	var scrubRep *sweep.ScrubReport
	if !*noCache && *cacheDir != "" {
		var err error
		cache, err = sweep.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		if *scrub {
			// Boot-time hygiene: a previous process killed mid-write can
			// leave temp files and torn entries behind; quarantine them
			// before the first request, and publish the report in /v1/stats.
			rep, err := cache.Scrub()
			if err != nil {
				fatal(err)
			}
			scrubRep = &rep
			fmt.Fprintf(os.Stderr, "hetsimd: cache scrub: %s\n", rep)
		}
	}
	var faults *serve.Faults
	if *fSlowEvery > 0 || *fCancel > 0 {
		faults = &serve.Faults{Seed: *fSeed, SlowEvery: *fSlowEvery, SlowDelay: *fSlow, CancelRate: *fCancel}
	}
	if cache != nil && (*fCacheFirst > 0 || *fCacheRate > 0) {
		// Cache-write faults fail the temp-file write inside the real
		// Cache.Put, which the engine's put retry then rides out.
		cache.Faults = &sweep.WriteFaults{Seed: *fSeed}
		cache.Faults.FailFirst[sweep.FaultTempWrite] = *fCacheFirst
		cache.Faults.Rates[sweep.FaultTempWrite] = *fCacheRate
	}
	if faults != nil || (cache != nil && cache.Faults != nil) {
		fmt.Fprintf(os.Stderr, "hetsimd: fault injection armed (seed %d)\n", *fSeed)
	}
	srv := serve.New(serve.Config{
		Cache:       cache,
		Workers:     *workers,
		Queue:       *queue,
		JobTimeout:  *jobTimeout,
		Retry:       sweep.RetryPolicy{Max: *retries, Base: *retryBase, Cap: time.Second, Seed: *seed},
		RatePerSec:  *rate,
		Burst:       *burst,
		TenantQuota: *tenantQuota,
		Heartbeat:   *heartbeat,
		Faults:      faults,
		Scrub:       scrubRep,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// First signal starts the drain; a second one force-exits with a
	// distinct status instead of waiting on a wedged job.
	ctx, stopSig := cli.NotifyDrain("hetsimd")
	defer stopSig()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	dir := "(none)"
	if cache != nil {
		dir = cache.Dir()
	}
	fmt.Fprintf(os.Stderr, "hetsimd: serving on %s (%d workers, cache %s)\n",
		*addr, *workers, dir)

	select {
	case err := <-errCh:
		fatal(err) // listener died before any signal
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "hetsimd: draining (second interrupt forces exit)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	derr := srv.Drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && derr == nil {
		derr = err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "hetsimd: %s — %d requests, %d executed (%d sharing another job's simulation), %d cache hits, %d deduped, %d retries, %d failed\n",
		st.State, st.Requests, st.Executed, st.SimsShared, st.CacheHits, st.Deduped, st.ExecRetries+st.PutRetries, st.Failed)
	if st.BatchRequests > 0 {
		fmt.Fprintf(os.Stderr, "hetsimd: batches — %d accepted carrying %d jobs: %d completed, %d failed, %d cursor cut(s), %d heartbeat(s)\n",
			st.BatchRequests, st.BatchJobs, st.BatchCompleted, st.BatchFailed, st.BatchCursorCuts, st.BatchHeartbeats)
	}
	if derr != nil {
		fatal(derr)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "hetsimd:", err)
	os.Exit(1)
}
