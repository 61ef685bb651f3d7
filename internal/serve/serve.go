// Package serve is the hardened simulation-as-a-service layer: a
// long-running HTTP/JSON front-end (cmd/hetsimd) over one sweep engine
// and the content-addressed run cache, built so that a million clients
// asking for the same sweep point cost one simulation.
//
// There is one submission mechanism, POST /v1/batch (batch.go): a
// campaign is a spec list streamed back as NDJSON completions, and a
// single point is simply a one-spec batch, charged like any other job.
// A completion names its point by its index in the submitted list and
// carries no key; only the cursor of a cut batch names keys. Every line
// is written by paper.BatchRecord.AppendJSON, byte for byte what
// json.Encoder writes.
// Client.RunBatch is the matching client. A batch is one sweep.RunNotify
// call on the server's one engine, which owns cache, execution, dedup,
// the Workers bound and retry; this package keeps admission, HTTP, NDJSON
// streaming and the request-level counters.
//
// The robustness envelope, every piece exercised under injected failure
// (fault.go, the soak drill):
//
//   - Single-flight dedup: concurrent batch points for the same content
//     key coalesce onto one in-flight simulation (the engine's flight);
//     waiters share the result or the typed error.
//   - Backpressure: a bounded admission queue and per-tenant token
//     buckets + in-flight quotas answer 429 with Retry-After instead of
//     melting down.
//   - Deadline propagation: a client deadline bounds how long its
//     request waits — never the shared simulation other waiters ride on.
//   - Bounded retry: transient failures (cache writes, injected faults)
//     re-attempt in the engine with seeded, jittered exponential backoff;
//     terminal errors (*sweep.PanicError, sweep.ErrJobTimeout, cancelled
//     contexts) never retry.
//   - Graceful drain: Drain stops admission (readiness flips to 503),
//     lets in-flight jobs finish and land in the fsynced cache — the
//     checkpoint — then reports. A wedged drain is bounded by its
//     context; cmd/hetsimd force-exits on a second signal.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// State is the drain state machine: Serving → Draining → Stopped.
type State int32

const (
	StateServing State = iota
	StateDraining
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "?"
}

// Config shapes a Server.
type Config struct {
	// Build resolves a job spec into the sweep job it names (key +
	// runner). Nil builds the paper sweep's job from the parsed request
	// (paper.BatchRequest.Job: paper.BuildSpecJob's job, resolved once
	// and sharing simulations and inputs with the request's other jobs);
	// tests and drills substitute instrumented builders.
	Build func(spec paper.JobSpec) (sweep.Job[json.RawMessage], error)
	// Cache persists results across requests and restarts (nil disables
	// persistence; dedup still works for concurrent requests).
	Cache *sweep.Cache
	// Workers bounds concurrently executing simulations across every
	// batch (sweep.Config.Workers; <= 0 selects runtime.GOMAXPROCS(0)).
	Workers int
	// Queue bounds admitted requests — running plus waiting, dedup
	// waiters included. Beyond it the server answers 429 + Retry-After.
	// <= 0 selects 8× Workers.
	Queue int
	// JobTimeout bounds each simulation (sweep.Config.JobTimeout);
	// a job that exceeds it fails terminally for every waiter.
	JobTimeout time.Duration
	// Retry bounds the re-attempts of each execution and cache write
	// (sweep.Config.Retry). Setting only Seed selects 3 retries with
	// 25ms-1s backoff; Max <= 0 with Base or Cap set disables retry.
	Retry sweep.RetryPolicy
	// RatePerSec and Burst parameterize the per-tenant token buckets
	// (RatePerSec <= 0 disables rate limiting).
	RatePerSec float64
	Burst      int
	// TenantQuota caps in-flight requests per tenant (<= 0 disables).
	TenantQuota int
	// Heartbeat is the keepalive cadence of an idle /v1/batch stream:
	// when no job completes for this long, a heartbeat record goes out so
	// proxies and load balancers see a live connection (<= 0 selects 10s).
	Heartbeat time.Duration
	// Faults injects service-level failures for drills (nil = none).
	Faults *Faults
	// Scrub, when set, is the startup cache-scrub report (cmd/hetsimd
	// runs sweep.Cache.Scrub before serving); it is republished verbatim
	// in Stats so operators can see what the last boot quarantined.
	Scrub *sweep.ScrubReport
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	State         string `json:"state"`
	Requests      uint64 `json:"requests"`
	RejectedQueue uint64 `json:"rejected_queue"`
	RejectedRate  uint64 `json:"rejected_rate"`
	RejectedQuota uint64 `json:"rejected_quota"`
	RejectedDrain uint64 `json:"rejected_drain"`
	BadRequests   uint64 `json:"bad_requests"`
	// Every batch job lands in exactly one of Deduped, CacheHits,
	// Executed, Failed and Expired, as its stream's summary counts it and
	// when that summary is sent (DESIGN.md §15); retries are the engine's.
	Deduped     uint64 `json:"deduped"`    // jobs that shared another job's simulation
	Leads       uint64 `json:"leads"`      // completions that led their flight
	CacheHits   uint64 `json:"cache_hits"` // waiters on a cache-hit flight included
	Executed    uint64 `json:"executed"`   // simulations actually run
	ExecRetries uint64 `json:"exec_retries"`
	PutRetries  uint64 `json:"put_retries"`
	PutFailures uint64 `json:"put_failures"` // puts that failed even after retry
	Failed      uint64 `json:"failed"`
	Expired     uint64 `json:"expired"` // jobs cut (deadline, cancel, drain) before completing
	// CacheResident counts the cache reads served from memory, without a
	// file read (sweep.CacheStats.Resident); a subset of the cache's own
	// hits, which count each leader's read once.
	CacheResident uint64 `json:"cache_resident"`

	// Batch counters (/v1/batch): accepted batch submissions, the jobs
	// they carried, how those jobs resolved, how many streams were cut
	// with a resumable cursor (drain, deadline or client disconnect), and
	// the keepalive records written. These are a multi-word group updated
	// together per batch; handlers mutate them and Stats snapshots them
	// under the same mutex, so /v1/stats never reports a torn view (a
	// batch whose jobs are counted but whose completions are not).
	BatchRequests   uint64 `json:"batch_requests"`
	BatchJobs       uint64 `json:"batch_jobs"`
	BatchCompleted  uint64 `json:"batch_completed"`
	BatchFailed     uint64 `json:"batch_failed"`
	BatchCursorCuts uint64 `json:"batch_cursor_cuts"`
	BatchHeartbeats uint64 `json:"batch_heartbeats"`
	// Scrub is the startup cache-scrub report (absent when the server
	// booted without one).
	Scrub *sweep.ScrubReport `json:"scrub,omitempty"`

	// Compile-tier counters (process-wide, DESIGN.md §12): BlockCompiles
	// counts program images predecoded for the CPU model; the memo
	// counters split kernels.Compiled lookups into reused vs freshly built
	// images, so a cache-busting client mix shows up as a miss surge here
	// before it shows up as latency.
	BlockCompiles     uint64 `json:"block_compiles"`
	CompileMemoHits   uint64 `json:"compile_memo_hits"`
	CompileMemoMisses uint64 `json:"compile_memo_misses"`
	// Simulation counters (process-wide, paper.SimStats): the
	// simulations batch jobs ran, and the jobs that took the result of
	// an identical simulation another job of their batch ran.
	SimsRun    uint64 `json:"sims_run"`
	SimsShared uint64 `json:"sims_shared"`
}

// Server is the simulation service. Create with New, mount Handler on an
// http.Server, stop with Drain.
type Server struct {
	cfg    Config
	eng    *sweep.Engine
	limits *limiter
	queued atomic.Int64
	state  atomic.Int32
	wg     sync.WaitGroup

	// drained is closed the moment Drain begins, broadcasting the cut to
	// every in-flight batch stream (they stop claiming, finish in-flight
	// jobs, and end with a cursor record).
	drained   chan struct{}
	drainOnce sync.Once

	// bmu guards the batch counter group: the fields are multi-word and
	// meaningful only together, so both the handlers that mutate them and
	// the Stats snapshot that reads them take this mutex — an atomic-per-
	// field discipline would hand /v1/stats torn batch accounting.
	bmu   sync.Mutex
	batch batchCounters

	requests      atomic.Uint64
	rejectedQueue atomic.Uint64
	rejectedRate  atomic.Uint64
	rejectedQuota atomic.Uint64
	rejectedDrain atomic.Uint64
	badRequests   atomic.Uint64
}

// batchCounters is the multi-word /v1/batch accounting group (see
// Server.bmu for the locking discipline).
type batchCounters struct {
	requests   uint64
	jobs       uint64
	completed  uint64
	failed     uint64
	cursorCuts uint64
	heartbeats uint64
	resolved   [numResolutions]uint64 // jobs by how they resolved
	leads      uint64
}

// New builds a server. The zero-value knobs of cfg select production
// defaults (see Config).
func New(cfg Config) *Server {
	if r := cfg.Retry; r == (sweep.RetryPolicy{Seed: r.Seed}) {
		cfg.Retry = sweep.RetryPolicy{Max: 3, Base: 25 * time.Millisecond, Cap: time.Second, Seed: r.Seed}
	}
	eng := sweep.New(sweep.Config{Workers: cfg.Workers, Cache: cfg.Cache,
		JobTimeout: cfg.JobTimeout, Retry: cfg.Retry})
	cfg.Workers = eng.Workers()
	if cfg.Queue <= 0 {
		cfg.Queue = 8 * cfg.Workers
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(math.Max(1, cfg.RatePerSec))
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	return &Server{cfg: cfg, eng: eng, drained: make(chan struct{}),
		limits: newLimiter(cfg.RatePerSec, cfg.Burst, cfg.TenantQuota)}
}

// State reports where the drain state machine stands.
func (s *Server) State() State { return State(s.state.Load()) }

// Stats snapshots the counters. The single-word counters are atomics;
// the batch group is multi-word and is snapshotted under the same mutex
// the batch handlers mutate it under, so its fields are mutually
// consistent even mid-load; the retry counters are the engine's.
func (s *Server) Stats() Stats {
	es := s.eng.Stats()
	bc, _, mh, mm := kernels.CompileStats()
	sr, ss := paper.SimStats()
	s.bmu.Lock()
	bt := s.batch
	s.bmu.Unlock()
	var cs sweep.CacheStats
	if c := s.eng.Cache(); c != nil {
		cs = c.Stats()
	}
	return Stats{
		State:         s.State().String(),
		Requests:      s.requests.Load(),
		RejectedQueue: s.rejectedQueue.Load(),
		RejectedRate:  s.rejectedRate.Load(),
		RejectedQuota: s.rejectedQuota.Load(),
		RejectedDrain: s.rejectedDrain.Load(),
		BadRequests:   s.badRequests.Load(),
		Deduped:       bt.resolved[resDeduped],
		Leads:         bt.leads,
		CacheHits:     bt.resolved[resCached],
		CacheResident: cs.Resident,
		Executed:      bt.resolved[resExecuted],
		ExecRetries:   uint64(es.ExecRetries),
		PutRetries:    uint64(es.PutRetries),
		PutFailures:   uint64(es.PutFailures),
		Failed:        bt.resolved[resFailed],
		Expired:       bt.resolved[resExpired],

		BatchRequests:   bt.requests,
		BatchJobs:       bt.jobs,
		BatchCompleted:  bt.completed,
		BatchFailed:     bt.failed,
		BatchCursorCuts: bt.cursorCuts,
		BatchHeartbeats: bt.heartbeats,

		Scrub: s.cfg.Scrub,

		BlockCompiles:     bc,
		CompileMemoHits:   mh,
		CompileMemoMisses: mm,
		SimsRun:           sr,
		SimsShared:        ss,
	}
}

// Handler returns the service's HTTP surface:
//
//	POST /v1/batch  submit a campaign or a single point (paper.BatchRequest
//	                → streamed NDJSON paper.BatchRecords: per-job
//	                completions by index as they land, heartbeats, a
//	                cursor of keys when cut, a terminal summary; a
//	                refusal is one JSON
//	                paper.JobResponse sent before any stream starts)
//	GET  /v1/stats  counters snapshot
//	GET  /healthz   liveness  (200 while the process runs)
//	GET  /readyz    readiness (200 serving, 503 draining/stopped)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.State() == StateServing {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ready\n")
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, s.State().String()+"\n")
	})
	return mux
}

// Drain executes the shutdown state machine: flip to draining (readiness
// and new submissions start answering 503), wait for every admitted
// request — including detached-waiter flights, which run on their
// leader's request — to finish and checkpoint into the fsynced cache,
// then report Stopped. The context bounds the wait; on expiry the server
// is still marked stopped (nothing new is admitted) and the error says
// what was abandoned.
func (s *Server) Drain(ctx context.Context) error {
	s.state.CompareAndSwap(int32(StateServing), int32(StateDraining))
	// Broadcast the cut to in-flight batch streams after the state flip:
	// they stop claiming new jobs, finish (and cache) what is in flight,
	// and end their stream with a resumable cursor.
	s.drainOnce.Do(func() { close(s.drained) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.state.Store(int32(StateStopped))
		return nil
	case <-ctx.Done():
		s.state.Store(int32(StateStopped))
		return fmt.Errorf("serve: drain abandoned %d queued request(s): %w", s.queued.Load(), ctx.Err())
	}
}

// maxBodyBytes bounds a request body at the HTTP layer
// (paper.ParseBatchRequest enforces the same bound on its own) and a
// stream line on the client side.
const maxBodyBytes = 1 << 20

// retryAfter renders a wait as a Retry-After header value (whole
// seconds, minimum 1 — the header has no sub-second form).
func retryAfter(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}
