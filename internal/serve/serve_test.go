package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// testBuild keys jobs by spec.Kernel and lets tests plug per-kernel
// behavior; unknown kernels fall back to an instant echo job.
func testBuild(runs map[string]func() (json.RawMessage, error)) func(paper.JobSpec) (sweep.Job[json.RawMessage], error) {
	return func(spec paper.JobSpec) (sweep.Job[json.RawMessage], error) {
		if spec.Kernel == "reject-me" {
			return sweep.Job[json.RawMessage]{}, fmt.Errorf("unknown kernel %q", spec.Kernel)
		}
		run := runs[spec.Kernel]
		if run == nil {
			payload := json.RawMessage(fmt.Sprintf(`{"kernel":%q}`, spec.Kernel))
			run = func() (json.RawMessage, error) { return payload, nil }
		}
		return sweep.Job[json.RawMessage]{Key: "test|" + spec.Kernel, Run: run}, nil
	}
}

// pointBody is a one-spec /v1/batch request — how a single point is
// submitted.
func pointBody(kernel, tenant string, timeoutMS int64) string {
	b, _ := json.Marshal(paper.BatchRequest{Tenant: tenant, TimeoutMS: timeoutMS,
		Specs: []paper.JobSpec{{Kernel: kernel, Seed: 1, Config: "plain"}}})
	return string(b)
}

// pointReply is the outcome of a one-spec batch: either a pre-stream
// refusal (code != 200, refusal set), or a stream whose single point
// either completed (job set) or went to the cursor.
type pointReply struct {
	code    int
	hdr     http.Header
	refusal paper.JobResponse
	job     *paper.BatchJob
	cursor  []string
	summary *paper.BatchSummary
}

// postPoint submits a one-spec batch and fully consumes the reply.
func postPoint(t *testing.T, ts *httptest.Server, payload string) pointReply {
	t.Helper()
	code, hdr, recs, refusal := postBatch(t, ts, payload)
	r := pointReply{code: code, hdr: hdr, refusal: refusal}
	if code != http.StatusOK {
		return r
	}
	r.summary = lastSummary(t, recs)
	for _, rec := range recs {
		switch rec.Type {
		case paper.BatchTypeJob:
			r.job = rec.Job
		case paper.BatchTypeCursor:
			r.cursor = rec.Pending
		}
	}
	return r
}

// waitFor polls until cond holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeExecuteAndCache(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	build := testBuild(map[string]func() (json.RawMessage, error){
		"k1": func() (json.RawMessage, error) {
			execs.Add(1)
			return json.RawMessage(`{"cycles":7}`), nil
		},
	})
	srv := New(Config{Build: build, Cache: cache, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := postPoint(t, ts, pointBody("k1", "", 0))
	if r.code != http.StatusOK || r.job == nil || r.job.Cached || string(r.job.Result) != `{"cycles":7}` {
		t.Fatalf("first request: code=%d job=%+v", r.code, r.job)
	}
	// The record names its point by index: the one spec submitted, whose
	// key is "test|k1".
	if r.job.Index != 0 {
		t.Fatalf("index = %d, want the point submitted at 0 (test|k1)", r.job.Index)
	}
	r = postPoint(t, ts, pointBody("k1", "", 0))
	if r.code != http.StatusOK || r.job == nil || !r.job.Cached || string(r.job.Result) != `{"cycles":7}` {
		t.Fatalf("second request: code=%d job=%+v", r.code, r.job)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executed %d times, want 1 (cache miss)", got)
	}
	st := srv.Stats()
	if st.Executed != 1 || st.CacheHits != 1 || st.Requests != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeDedupConcurrent(t *testing.T) {
	gate := make(chan struct{})
	leading := make(chan struct{})
	var execs atomic.Int64
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			execs.Add(1)
			close(leading)
			<-gate
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 2, Queue: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const waiters = 5
	var wg sync.WaitGroup
	replies := make([]pointReply, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		replies[0] = postPoint(t, ts, pointBody("slow", "", 0))
	}()
	<-leading
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postPoint(t, ts, pointBody("slow", "", 0))
		}(i)
	}
	waitFor(t, "waiters to coalesce", func() bool {
		return srv.eng.Flights().Shared == waiters
	})
	close(gate)
	wg.Wait()
	for i, r := range replies {
		if r.code != http.StatusOK || r.job == nil || r.job.Error != "" {
			t.Fatalf("request %d: code %d job %+v", i, r.code, r.job)
		}
	}
	for i := 1; i <= waiters; i++ {
		if !replies[i].job.Shared {
			t.Fatalf("waiter %d not marked shared", i)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("deduped key executed %d times", got)
	}
	st := srv.Stats()
	if st.Deduped != waiters || st.Leads != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeQueueFull(t *testing.T) {
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 1, Queue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "", 0)).code
	}()
	<-leading
	r := postPoint(t, ts, pointBody("other", "", 0))
	if r.code != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: code %d", r.code)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !r.refusal.Retryable {
		t.Fatal("queue rejection must be retryable")
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request: code %d", code)
	}
	if st := srv.Stats(); st.RejectedQueue != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeRateLimit(t *testing.T) {
	srv := New(Config{Build: testBuild(nil), Workers: 2, RatePerSec: 0.001, Burst: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if r := postPoint(t, ts, pointBody("a", "lab", 0)); r.code != http.StatusOK {
		t.Fatalf("burst request: code %d", r.code)
	}
	r := postPoint(t, ts, pointBody("b", "lab", 0))
	if r.code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: code %d", r.code)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Fatal("rate 429 without Retry-After")
	}
	// Another tenant's bucket is untouched.
	if r := postPoint(t, ts, pointBody("c", "other", 0)); r.code != http.StatusOK {
		t.Fatalf("other tenant: code %d", r.code)
	}
	if st := srv.Stats(); st.RejectedRate != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeTenantQuota(t *testing.T) {
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 2, Queue: 8, TenantQuota: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "lab", 0)).code
	}()
	<-leading
	r := postPoint(t, ts, pointBody("fast", "lab", 0))
	if r.code != http.StatusTooManyRequests || r.hdr.Get("Retry-After") == "" || !r.refusal.Retryable {
		t.Fatalf("over-quota request: code=%d refusal=%+v", r.code, r.refusal)
	}
	if r := postPoint(t, ts, pointBody("fast", "other", 0)); r.code != http.StatusOK {
		t.Fatalf("other tenant blocked by lab's quota: code %d", r.code)
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request: code %d", code)
	}
	if st := srv.Stats(); st.RejectedQuota != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeOneSpecCharge pins that a single point costs exactly what the
// retired per-point endpoint charged: one quota slot and one queue slot.
// With TenantQuota Q, exactly Q concurrent one-spec batches are admitted,
// each holding queue footprint 1, and the (Q+1)th is refused with 429.
func TestServeOneSpecCharge(t *testing.T) {
	const quota = 3
	gate := make(chan struct{})
	var running atomic.Int64
	runs := map[string]func() (json.RawMessage, error){}
	for i := 0; i < quota; i++ {
		runs[fmt.Sprintf("q%d", i)] = func() (json.RawMessage, error) {
			running.Add(1)
			<-gate
			return json.RawMessage(`{}`), nil
		}
	}
	srv := New(Config{Build: testBuild(runs), Workers: quota + 1, Queue: 16, TenantQuota: quota})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Unblock the held points before ts.Close waits on their handlers,
	// also when an assertion below fails first.
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	codes := make(chan int, quota)
	for i := 0; i < quota; i++ {
		go func(i int) {
			codes <- postPoint(t, ts, pointBody(fmt.Sprintf("q%d", i), "lab", 0)).code
		}(i)
	}
	waitFor(t, "every admitted point to be running", func() bool {
		return running.Load() == quota
	})
	if got := srv.queued.Load(); got != quota {
		t.Fatalf("%d one-spec batches hold %d queue slots, want %d", quota, got, quota)
	}
	r := postPoint(t, ts, pointBody("extra", "lab", 0))
	if r.code != http.StatusTooManyRequests || r.hdr.Get("Retry-After") == "" || !r.refusal.Retryable {
		t.Fatalf("point %d of a %d-slot quota: code=%d refusal=%+v", quota+1, quota, r.code, r.refusal)
	}
	release()
	for i := 0; i < quota; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("admitted point: code %d", code)
		}
	}
	if st := srv.Stats(); st.RejectedQuota != 1 || st.BatchRequests != quota || st.BatchJobs != quota {
		t.Fatalf("stats = %+v", st)
	}
	if got := srv.queued.Load(); got != 0 {
		t.Fatalf("queue slots not released: %d", got)
	}
}

// TestServeWaiterDeadline pins deadline propagation: a waiter's budget
// bounds its wait — the point lands in the cursor and counts as expired —
// never the shared simulation, which completes for its leader and is
// cached.
func TestServeWaiterDeadline(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{"done":true}`), nil
		},
	})
	srv := New(Config{Build: build, Cache: cache, Workers: 2, Queue: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan pointReply, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "", 0))
	}()
	<-leading
	r := postPoint(t, ts, pointBody("slow", "", 30))
	if r.code != http.StatusOK || r.job != nil || len(r.cursor) != 1 || r.cursor[0] != "test|slow" {
		t.Fatalf("expired waiter: code=%d job=%+v cursor=%v", r.code, r.job, r.cursor)
	}
	if r.summary.Pending != 1 || r.summary.Completed != 0 {
		t.Fatalf("expired waiter summary = %+v", r.summary)
	}
	close(gate)
	leader := <-done
	if leader.job == nil || string(leader.job.Result) != `{"done":true}` {
		t.Fatalf("leader job = %+v", leader.job)
	}
	var raw json.RawMessage
	if !cache.Get("test|slow", &raw) || string(raw) != `{"done":true}` {
		t.Fatalf("leader result not cached: %s", raw)
	}
	if st := srv.Stats(); st.Expired != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeInjectedCancel pins the fault hook's mid-request
// cancellation: a waiter whose batch the hook cuts sends its point to the
// cursor (expired) while the leader — whose batch is equally cut — rides
// the simulation to completion, and the result still lands in the cache.
// The cut comes late enough for the leader's batch to have claimed its
// point; a batch cut before claiming simply leaves the point pending.
func TestServeInjectedCancel(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{"v":1}`), nil
		},
	})
	srv := New(Config{Build: build, Cache: cache, Workers: 2, Queue: 8,
		Faults: &Faults{CancelRate: 1, CancelAfter: 50 * time.Millisecond}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan pointReply, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "", 0))
	}()
	<-leading
	r := postPoint(t, ts, pointBody("slow", "", 0))
	if r.code != http.StatusOK || r.job != nil || len(r.cursor) != 1 || r.cursor[0] != "test|slow" {
		t.Fatalf("injected-cancel waiter: code=%d job=%+v cursor=%v", r.code, r.job, r.cursor)
	}
	close(gate)
	leader := <-done
	if leader.job == nil || string(leader.job.Result) != `{"v":1}` {
		t.Fatalf("leader job = %+v", leader.job)
	}
	var raw json.RawMessage
	if !cache.Get("test|slow", &raw) || string(raw) != `{"v":1}` {
		t.Fatalf("result of the cancelled-context leader not cached: %s", raw)
	}
	if st := srv.Stats(); st.Expired != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeDrainLifecycle(t *testing.T) {
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 2, Queue: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while serving: %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz while serving: %d", code)
	}

	done := make(chan pointReply, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "", 0))
	}()
	<-leading

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "drain to start", func() bool { return srv.State() == StateDraining })

	// Readiness flips, liveness stays, new submissions bounce retryably;
	// the in-flight job is still running.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
	r := postPoint(t, ts, pointBody("late", "", 0))
	if r.code != http.StatusServiceUnavailable || !r.refusal.Retryable || r.hdr.Get("Retry-After") == "" {
		t.Fatalf("submission while draining: code=%d refusal=%+v", r.code, r.refusal)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a job in flight: %v", err)
	default:
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight point led its flight, so it rode the drain to
	// completion instead of going to the cursor.
	if in := <-done; in.code != http.StatusOK || in.job == nil || in.job.Error != "" || len(in.cursor) != 0 {
		t.Fatalf("in-flight request during drain: code=%d job=%+v cursor=%v", in.code, in.job, in.cursor)
	}
	if srv.State() != StateStopped {
		t.Fatalf("state after drain = %v", srv.State())
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", code)
	}
	if st := srv.Stats(); st.RejectedDrain != 1 || st.State != "stopped" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeDrainTimeout pins the bounded-drain contract: a wedged job
// makes Drain return its context's error, but the server still refuses
// new work.
func TestServeDrainTimeout(t *testing.T) {
	gate := make(chan struct{})
	leading := make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"wedged": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() {
		postPoint(t, ts, pointBody("wedged", "", 0))
		close(done)
	}()
	<-leading
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain of a wedged job returned nil")
	}
	if srv.State() != StateStopped {
		t.Fatalf("state after abandoned drain = %v", srv.State())
	}
	if r := postPoint(t, ts, pointBody("late", "", 0)); r.code != http.StatusServiceUnavailable {
		t.Fatalf("submission after abandoned drain: code %d", r.code)
	}
	close(gate)
	<-done
}

func TestServeBadRequests(t *testing.T) {
	srv := New(Config{Build: testBuild(nil), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if r := postPoint(t, ts, `not json at all`); r.code != http.StatusBadRequest {
		t.Fatalf("garbage body: code %d", r.code)
	}
	// A well-formed request whose spec the builder rejects is the client's
	// fault, not the server's.
	r := postPoint(t, ts, pointBody("reject-me", "", 0))
	if r.code != http.StatusBadRequest || r.refusal.Retryable {
		t.Fatalf("builder rejection: code=%d refusal=%+v", r.code, r.refusal)
	}
	// The per-point endpoint is gone: /v1/batch is the one submission path.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/jobs: code %d, want 404", resp.StatusCode)
	}
	if st := srv.Stats(); st.BadRequests != 2 || st.Requests != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeTransientRetry pins the bounded-retry path on both seams: an
// execution that fails transiently recovers, and injected cache-write
// failures are retried until the entry persists — without re-running the
// simulation.
func TestServeTransientRetry(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Faults = &sweep.WriteFaults{}
	cache.Faults.FailFirst[sweep.FaultTempWrite] = 2
	var attempts atomic.Int64
	build := testBuild(map[string]func() (json.RawMessage, error){
		"flaky": func() (json.RawMessage, error) {
			if attempts.Add(1) <= 2 {
				return nil, fmt.Errorf("transient hiccup")
			}
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	srv := New(Config{
		Build: build, Cache: cache, Workers: 1,
		Retry: sweep.RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := postPoint(t, ts, pointBody("flaky", "", 0))
	if r.code != http.StatusOK || r.job == nil || string(r.job.Result) != `{"ok":true}` {
		t.Fatalf("flaky request: code=%d job=%+v", r.code, r.job)
	}
	st := srv.Stats()
	if st.ExecRetries != 2 || st.Executed != 1 {
		t.Fatalf("exec stats = %+v", st)
	}
	if st.PutRetries != 2 || st.PutFailures != 0 {
		t.Fatalf("put stats = %+v", st)
	}
	// The entry persisted despite the injected failures: a fresh cache
	// handle (fresh server) sees it.
	reopened, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if !reopened.Get("test|flaky", &raw) || string(raw) != `{"ok":true}` {
		t.Fatalf("cache entry did not persist: %s", raw)
	}
}

// TestServeTerminalFailure pins the other side of the taxonomy: a job
// that times out under the engine's budget is terminal — no retry, a
// job record with retryable:false, counted failed.
func TestServeTerminalFailure(t *testing.T) {
	build := testBuild(map[string]func() (json.RawMessage, error){
		"stuck": func() (json.RawMessage, error) {
			time.Sleep(200 * time.Millisecond)
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 1, JobTimeout: 10 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r := postPoint(t, ts, pointBody("stuck", "", 0))
	if r.code != http.StatusOK || r.job == nil || r.job.Error == "" {
		t.Fatalf("timed-out job: code %d job %+v", r.code, r.job)
	}
	if r.job.Retryable {
		t.Fatal("ErrJobTimeout must not be retryable")
	}
	if r.summary.Failed != 1 || r.summary.Pending != 0 {
		t.Fatalf("summary = %+v", r.summary)
	}
	st := srv.Stats()
	if st.Failed != 1 || st.ExecRetries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeScrubInStats: a startup scrub report configured on the server
// is republished through Stats (and so through /v1/stats).
func TestServeScrubInStats(t *testing.T) {
	rep := &sweep.ScrubReport{Scanned: 3, Healthy: 2, Corrupt: 1}
	srv := New(Config{Build: testBuild(nil), Workers: 1, Scrub: rep})
	st := srv.Stats()
	if st.Scrub == nil || *st.Scrub != *rep {
		t.Fatalf("stats scrub = %+v, want %+v", st.Scrub, rep)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Stats
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Scrub == nil || *decoded.Scrub != *rep {
		t.Fatalf("scrub did not survive the JSON round trip: %+v", decoded.Scrub)
	}
}

func TestLimiter(t *testing.T) {
	l := newLimiter(1, 2, 3)
	clock := time.Unix(1000, 0)
	l.now = func() time.Time { return clock }

	// Burst of 2, then the bucket is dry (quota still has room, so the
	// refusal is rate-shaped: a positive wait until the next token).
	for i := 0; i < 2; i++ {
		if _, ok := l.admitN("a", 1); !ok {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	wait, ok := l.admitN("a", 1)
	if ok || wait <= 0 {
		t.Fatalf("dry bucket: ok=%v wait=%v", ok, wait)
	}
	// Refill, fill the quota; the next refusal is quota-shaped (wait 0:
	// retry when in-flight work completes, not after a token interval).
	clock = clock.Add(5 * time.Second)
	if _, ok := l.admitN("a", 1); !ok {
		t.Fatal("admit after refill refused")
	}
	wait, ok = l.admitN("a", 1)
	if ok || wait != 0 {
		t.Fatalf("over quota: ok=%v wait=%v", ok, wait)
	}
	l.releaseN("a", 1)
	if _, ok := l.admitN("a", 1); !ok {
		t.Fatal("admit after release refused")
	}
	// Tenants are independent.
	if _, ok := l.admitN("b", 1); !ok {
		t.Fatal("tenant b blocked by tenant a")
	}
	// A nil limiter admits everything.
	var nilL *limiter
	if _, ok := nilL.admitN("x", 1); !ok {
		t.Fatal("nil limiter refused")
	}
}

func TestRetryAfterRendering(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{10 * time.Second, "10"},
	}
	for _, tc := range cases {
		if got := retryAfter(tc.d); got != tc.want {
			t.Errorf("retryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestFaultsDeterminism(t *testing.T) {
	a := &Faults{Seed: 7, CancelRate: 0.5}
	b := &Faults{Seed: 7, CancelRate: 0.5}
	for i := 0; i < 64; i++ {
		_, ca := a.CancelRequest()
		_, cb := b.CancelRequest()
		if ca != cb {
			t.Fatal("same seed, different cancel stream")
		}
	}
	// nil is a no-op everywhere.
	var nf *Faults
	if nf.SlowJob() != 0 {
		t.Fatal("nil Faults injected something")
	}
	if _, ok := nf.CancelRequest(); ok {
		t.Fatal("nil Faults cancelled")
	}
}
