package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// This file is the service's one submission path: POST /v1/batch accepts
// a whole campaign in one submission — an explicit spec list, the one
// request form — and streams per-job completions back as NDJSON the
// moment each lands, so a 60-point paper sweep costs one HTTP round trip
// instead of sixty. A single point is a one-spec batch. Every point rides
// the single-flight layer (points of concurrent batches that share a key
// coalesce onto one simulation), the cache and the retry taxonomy, and
// admission charges the full job count up front — a one-spec batch pays
// one rate token, one quota slot and one queue slot.
//
// The stream's failure envelope mirrors the drain design: when the batch
// is cut — server drain, request deadline, client disconnect, injected
// cancellation — workers stop claiming, in-flight simulations ride to
// completion and land in the cache, and the stream ends with a cursor
// record naming every uncompleted key. Re-submitting exactly those keys
// resumes the campaign; the completed remainder is already cached, so a
// resume costs only the missing work.

// batchVal is what a batch job publishes per point: the raw result plus
// how it was obtained (for the summary accounting).
type batchVal struct {
	raw    json.RawMessage
	cached bool
	shared bool
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, paper.JobResponse{Error: "POST only"})
		return
	}
	// Track before the state check: a drain that begins after this point
	// waits for the whole stream (and every simulation it leads).
	s.wg.Add(1)
	defer s.wg.Done()
	if s.State() != StateServing {
		s.rejectedDrain.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			paper.JobResponse{Error: "server is " + s.State().String(), Retryable: true})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, paper.JobResponse{Error: "reading request: " + err.Error()})
		return
	}
	req, err := paper.ParseBatchRequest(body)
	if err != nil {
		s.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, paper.JobResponse{Error: err.Error()})
		return
	}
	specs := req.Specs
	// Resolve every spec before the stream starts: a batch with one
	// unresolvable point is refused whole with a diagnosable 400 rather
	// than failing mid-stream after work has been spent.
	inners := make([]sweep.Job[json.RawMessage], len(specs))
	for i, spec := range specs {
		inner, err := s.cfg.Build(spec)
		if err != nil {
			s.badRequests.Add(1)
			writeJSON(w, http.StatusBadRequest,
				paper.JobResponse{Error: "batch spec " + strconv.Itoa(i) + ": " + err.Error()})
			return
		}
		inners[i] = inner
	}

	// The queue charge is the batch's true concurrent footprint: at most
	// Workers of its jobs are claimed at once, so that is what it holds
	// against the admission bound — a 4096-point batch must not evict
	// every one-spec client from the queue.
	foot := int64(min(len(inners), s.cfg.Workers))
	// A batch that no amount of finished work can make fit — more points
	// than the tenant quota, or a footprint beyond the whole queue — is
	// refused for good: a retryable 429 would only make the client spend
	// its whole retry budget waiting.
	if q := s.cfg.TenantQuota; q > 0 && len(inners) > q {
		s.rejectedQuota.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, paper.JobResponse{
			Error: fmt.Sprintf("batch of %d specs exceeds the tenant quota of %d; split it", len(inners), q)})
		return
	}
	if foot > int64(s.cfg.Queue) {
		s.rejectedQueue.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, paper.JobResponse{
			Error: fmt.Sprintf("batch of %d specs needs %d queue slots, more than the queue of %d", len(inners), foot, s.cfg.Queue)})
		return
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	// Admission charges the whole batch: the in-flight quota must fit
	// every job at once, and the rate bucket is debited the full count
	// (overdraft semantics — see limiter.admitN), so packaging a campaign
	// into one request never sidesteps a tenant's budget.
	if wait, ok := s.limits.admitN(tenant, len(inners)); !ok {
		if wait > 0 {
			s.rejectedRate.Add(1)
		} else {
			s.rejectedQuota.Add(1)
		}
		w.Header().Set("Retry-After", retryAfter(wait))
		writeJSON(w, http.StatusTooManyRequests,
			paper.JobResponse{Error: "tenant over rate limit or quota", Retryable: true})
		return
	}
	defer s.limits.releaseN(tenant, len(inners))
	if n := s.queued.Add(foot); n > int64(s.cfg.Queue) {
		s.queued.Add(-foot)
		s.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			paper.JobResponse{Error: "admission queue full", Retryable: true})
		return
	}
	defer s.queued.Add(-foot)

	// The batch context is every cut rolled into one cancellation: client
	// disconnect (r.Context), the request's own deadline, an injected
	// drill cancellation, and server drain. Cancellation stops claiming;
	// it never kills an in-flight simulation — other waiters may be
	// riding on it, and a finished job is a cache entry a resume skips.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if req.TimeoutMS > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer tcancel()
	}
	if d, ok := s.cfg.Faults.CancelRequest(); ok {
		t := time.AfterFunc(d, cancel)
		defer t.Stop()
	}
	go func() {
		select {
		case <-s.drained:
			cancel()
		case <-ctx.Done():
		}
	}()

	jobs := make([]sweep.Job[batchVal], len(inners))
	for i, inner := range inners {
		jobs[i] = s.batchJob(ctx, inner)
	}

	s.bmu.Lock()
	s.batch.requests++
	s.batch.jobs += uint64(len(jobs))
	s.bmu.Unlock()

	// records carries job, cursor and summary lines from the producer to
	// the streamer. The buffer holds the worst case (every job plus the
	// two terminal records), so the engine's notify callback — which runs
	// under the engine mutex — never blocks on a slow or dead client.
	records := make(chan paper.BatchRecord, len(jobs)+2)
	go s.runBatch(ctx, jobs, records)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var werr error
	// write encodes one record and, if flush, pushes the stream to the
	// client. A producer record flushes only when no further record is
	// queued, so a burst of completions (a warm batch's cache hits) leaves
	// in a few writes, while a record that arrives alone is never held
	// back; the summary is always last, so it always flushes.
	write := func(rec paper.BatchRecord, flush bool) bool {
		if werr != nil {
			return false
		}
		if werr = enc.Encode(rec); werr != nil {
			return false
		}
		if flush && flusher != nil {
			flusher.Flush()
		}
		return true
	}
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case rec, ok := <-records:
			if !ok {
				// Producer done: every claimed simulation has completed, so
				// returning (and releasing the drain group) is safe.
				return
			}
			write(rec, len(records) == 0)
		case <-hb.C:
			// Keepalive: an idle stream (a long simulation, a cold cache)
			// still shows bytes on the wire, so proxies and load balancers
			// between the client and the pool keep the connection alive.
			if write(paper.BatchRecord{Type: paper.BatchTypeHeartbeat}, true) {
				s.bmu.Lock()
				s.batch.heartbeats++
				s.bmu.Unlock()
			}
		}
	}
}

// batchJob wraps a resolved job for the batch engine: the run is one
// pass through the single-flight layer, so points of concurrent batches
// that share a key cost one simulation, and it keeps the server's dedup,
// expiry and failure counters.
func (s *Server) batchJob(ctx context.Context, inner sweep.Job[json.RawMessage]) sweep.Job[batchVal] {
	return sweep.Job[batchVal]{
		Key: inner.Key,
		Run: func() (batchVal, error) {
			// The batch context governs only the *wait*: a point that leads
			// its flight runs on this goroutine's stack and always rides to
			// completion (and lands in the cache) even through a cut — that
			// is what makes the cursor's "completed points are cached"
			// promise true — while a point waiting on another request's
			// flight detaches at the cut and goes to the cursor; the flight
			// itself, which has other waiters, is untouched.
			v, err, shared := s.flight.Do(ctx, inner.Key, func() (flightVal, error) {
				return s.lead(inner)
			})
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					s.expired.Add(1)
				} else {
					s.failed.Add(1)
				}
				return batchVal{}, err
			}
			return batchVal{raw: v.raw, cached: v.cached, shared: shared}, nil
		},
	}
}

// runBatch executes the campaign on a per-batch engine and feeds the
// record channel: one job record per completion in completion order, a
// cursor record when the batch was cut before finishing, and always a
// terminal summary. Closes records when the batch is fully wound down —
// the handler (and therefore Drain) waits on that.
func (s *Server) runBatch(ctx context.Context, jobs []sweep.Job[batchVal], records chan<- paper.BatchRecord) {
	defer close(records)
	// A fresh engine per batch: its Context is the batch's cut signal,
	// and its workers mirror the server's pool width. Global simulation
	// concurrency is still bounded by s.sem inside lead — the batch
	// engine only bounds how many points wait on flights at once.
	eng := sweep.New(sweep.Config{Workers: s.cfg.Workers, Context: ctx})
	done := make([]bool, len(jobs))
	var completed, failed, cached, deduped, executed int
	_ = sweep.RunNotify(eng, jobs, func(c sweep.Completion[batchVal]) {
		rec := paper.BatchRecord{Type: paper.BatchTypeJob,
			Job: &paper.BatchJob{Index: c.Index, Key: c.Key}}
		switch {
		case c.Err == nil:
			done[c.Index] = true
			completed++
			rec.Job.Cached = c.Value.cached
			rec.Job.Shared = c.Value.shared
			rec.Job.Result = c.Value.raw
			switch {
			case c.Value.cached:
				cached++
			case c.Value.shared:
				deduped++
			default:
				executed++
			}
		case errors.Is(c.Err, context.Canceled) || errors.Is(c.Err, context.DeadlineExceeded):
			// The batch was cut while this point waited on a flight; the
			// point itself is unharmed and goes to the cursor, not the
			// stream — a resume re-submits it for free.
			return
		case Retryable(c.Err):
			// Transient failure that exhausted the server's retry budget:
			// reported, left incomplete (cursor), the client may resubmit.
			rec.Job.Error = c.Err.Error()
			rec.Job.Retryable = true
		default:
			// Terminal (panic, job timeout, bad build): reported and done —
			// resubmitting the same point would fail the same way.
			done[c.Index] = true
			failed++
			rec.Job.Error = c.Err.Error()
		}
		records <- rec
	})
	var pending []string
	for i, ok := range done {
		if !ok {
			pending = append(pending, jobs[i].Key)
		}
	}
	if len(pending) > 0 {
		records <- paper.BatchRecord{Type: paper.BatchTypeCursor, Pending: pending}
	}
	records <- paper.BatchRecord{Type: paper.BatchTypeSummary, Summary: &paper.BatchSummary{
		Jobs:      len(jobs),
		Completed: completed,
		Failed:    failed,
		Pending:   len(pending),
		Cached:    cached,
		Deduped:   deduped,
		Executed:  executed,
		State:     s.State().String(),
	}}
	s.bmu.Lock()
	s.batch.completed += uint64(completed)
	s.batch.failed += uint64(failed)
	if len(pending) > 0 {
		s.batch.cursorCuts++
	}
	s.bmu.Unlock()
}
