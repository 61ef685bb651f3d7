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
// instead of sixty. A single point is a one-spec batch. Every batch runs
// through sweep.RunNotify on the server's one engine, so every point rides
// its single-flight layer (points of concurrent batches that share a key
// coalesce onto one simulation), its cache and its retry taxonomy, and
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

// resolution is how one batch job ended. runBatch puts every job in
// exactly one, and the stream's summary and /v1/stats count the same ones
// (DESIGN.md §15).
type resolution int

const (
	resCached   resolution = iota // served from the cache, also by a joined flight
	resDeduped                    // shared another job's simulation
	resExecuted                   // led its flight and simulated
	resFailed                     // failed, terminally or after the retry budget
	resExpired                    // cut before it completed: detached or never claimed
	numResolutions
)

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
	build := req.Job
	if s.cfg.Build != nil {
		build = func(i int) (sweep.Job[json.RawMessage], error) { return s.cfg.Build(specs[i]) }
	}
	jobs := make([]sweep.Job[json.RawMessage], len(specs))
	for i := range specs {
		job, err := build(i)
		if err != nil {
			s.badRequests.Add(1)
			writeJSON(w, http.StatusBadRequest,
				paper.JobResponse{Error: "batch spec " + strconv.Itoa(i) + ": " + err.Error()})
			return
		}
		jobs[i] = s.cfg.Faults.slow(job)
	}

	// The queue charge is the batch's true concurrent footprint: at most
	// Workers of its jobs are claimed at once, so that is what it holds
	// against the admission bound — a 4096-point batch must not evict
	// every one-spec client from the queue.
	foot := int64(min(len(jobs), s.cfg.Workers))
	// A batch that no amount of finished work can make fit — more points
	// than the tenant quota, or a footprint beyond the whole queue — is
	// refused for good: a retryable 429 would only make the client spend
	// its whole retry budget waiting.
	if q := s.cfg.TenantQuota; q > 0 && len(jobs) > q {
		s.rejectedQuota.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, paper.JobResponse{
			Error: fmt.Sprintf("batch of %d specs exceeds the tenant quota of %d; split it", len(jobs), q)})
		return
	}
	if foot > int64(s.cfg.Queue) {
		s.rejectedQueue.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, paper.JobResponse{
			Error: fmt.Sprintf("batch of %d specs needs %d queue slots, more than the queue of %d", len(jobs), foot, s.cfg.Queue)})
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
	if wait, ok := s.limits.admitN(tenant, len(jobs)); !ok {
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
	defer s.limits.releaseN(tenant, len(jobs))
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
	var line []byte
	var werr error
	// write encodes one record (paper.BatchRecord.AppendJSON, one Write
	// per line) and, if flush, pushes the stream to the client. A producer
	// record flushes only when no further record is queued, so a burst of
	// completions (a warm batch's cache hits) leaves in a few writes, while
	// a record that arrives alone is never held back; the summary is
	// always last, so it always flushes.
	write := func(rec paper.BatchRecord, flush bool) bool {
		if werr != nil {
			return false
		}
		if line, werr = rec.AppendJSON(line[:0]); werr != nil {
			return false
		}
		if _, werr = w.Write(line); werr != nil {
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
				return
			}
			write(rec, len(records) == 0)
			if rec.Type == paper.BatchTypeSummary {
				// The producer's last record: every claimed simulation has
				// completed, so returning (and releasing the drain group) is
				// safe, and no heartbeat can follow the summary.
				return
			}
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

// runBatch executes the campaign on the server's engine and feeds the
// record channel: one job record per completion in completion order, a
// cursor record when the batch was cut before finishing, and always a
// terminal summary, whose job counts reach /v1/stats, with the rest of
// the batch group, just before it is sent. The summary is the last
// record; the handler (and therefore Drain) waits for it.
func (s *Server) runBatch(ctx context.Context, jobs []sweep.Job[json.RawMessage], records chan<- paper.BatchRecord) {
	defer close(records)
	done := make([]bool, len(jobs))
	var n [numResolutions]int
	leads, failed := 0, 0
	// ctx is the batch's cut: it stops claiming and detaches this batch's
	// waiters, never a simulation this batch leads.
	_ = sweep.RunNotify(s.eng, ctx, jobs, func(c sweep.Completion[json.RawMessage]) {
		if !c.Shared {
			leads++
		}
		rec := paper.BatchRecord{Type: paper.BatchTypeJob,
			Job: &paper.BatchJob{Index: c.Index}}
		switch {
		case c.Err == nil:
			done[c.Index] = true
			rec.Job.Cached = c.Hit
			rec.Job.Shared = c.Shared
			rec.Job.Result = c.Value
			switch {
			case c.Hit: // also by a flight another job led
				n[resCached]++
			case c.Shared:
				n[resDeduped]++
			default:
				n[resExecuted]++
			}
		case errors.Is(c.Err, context.Canceled) || errors.Is(c.Err, context.DeadlineExceeded):
			// The batch was cut while this point waited on a flight; the
			// point itself is unharmed and goes to the cursor, not the
			// stream — a resume re-submits it for free. It is expired.
			return
		case sweep.Retryable(c.Err):
			// Transient failure that exhausted the server's retry budget:
			// reported, left incomplete (cursor), the client may resubmit.
			n[resFailed]++
			rec.Job.Error = c.Err.Error()
			rec.Job.Retryable = true
		default:
			// Terminal (panic, job timeout, bad build): reported and done —
			// resubmitting the same point would fail the same way.
			done[c.Index] = true
			n[resFailed]++
			failed++
			rec.Job.Error = c.Err.Error()
		}
		records <- rec
	})
	// Every job the cut kept from completing is expired: a detached
	// waiter, or a point never claimed. None is also counted deduped.
	n[resExpired] = len(jobs) - n[resCached] - n[resDeduped] - n[resExecuted] - n[resFailed]
	var pending []string
	for i, ok := range done {
		if !ok {
			pending = append(pending, jobs[i].Key)
		}
	}
	completed := n[resCached] + n[resDeduped] + n[resExecuted]
	s.bmu.Lock()
	for r, k := range n {
		s.batch.resolved[r] += uint64(k)
	}
	s.batch.leads += uint64(leads)
	s.batch.completed += uint64(completed)
	s.batch.failed += uint64(failed)
	if len(pending) > 0 {
		s.batch.cursorCuts++
	}
	s.bmu.Unlock()
	if len(pending) > 0 {
		records <- paper.BatchRecord{Type: paper.BatchTypeCursor, Pending: pending}
	}
	records <- paper.BatchRecord{Type: paper.BatchTypeSummary, Summary: &paper.BatchSummary{
		Jobs:      len(jobs),
		Completed: completed,
		Failed:    failed,
		Pending:   len(pending),
		Cached:    n[resCached],
		Deduped:   n[resDeduped],
		Executed:  n[resExecuted],
		State:     s.State().String(),
	}}
}
