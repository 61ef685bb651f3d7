package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// batchBody builds an explicit-spec batch request over the named kernels
// (testBuild keys them "test|<kernel>").
func batchBody(t *testing.T, tenant string, names ...string) string {
	t.Helper()
	specs := make([]paper.JobSpec, len(names))
	for i, n := range names {
		specs[i] = paper.JobSpec{Kernel: n, Seed: 1, Config: "plain"}
	}
	b, err := json.Marshal(paper.BatchRequest{Tenant: tenant, Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postBatch submits a batch and fully consumes the response: on 200 the
// decoded NDJSON records, otherwise the JSON refusal.
func postBatch(t *testing.T, ts *httptest.Server, payload string) (int, http.Header, []paper.BatchRecord, paper.JobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var jr paper.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("undecodable batch refusal (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, resp.Header, nil, jr
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch stream Content-Type = %q", ct)
	}
	var recs []paper.BatchRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec paper.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("undecodable batch record %q: %v", sc.Text(), err)
		}
		// Every line is exactly what json.Encoder writes for its record,
		// and a job line names its point by index alone.
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if got := sc.Text() + "\n"; got != want.String() {
			t.Fatalf("batch line %q, json.Encoder writes %q", got, want.String())
		}
		if rec.Type == paper.BatchTypeJob && strings.Contains(sc.Text(), `"key"`) {
			t.Fatalf("job line carries a key: %s", sc.Text())
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("batch stream: %v", err)
	}
	return resp.StatusCode, resp.Header, recs, paper.JobResponse{}
}

// lastSummary asserts the stream's terminal record is a summary and
// returns it.
func lastSummary(t *testing.T, recs []paper.BatchRecord) *paper.BatchSummary {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("empty batch stream")
	}
	last := recs[len(recs)-1]
	if last.Type != paper.BatchTypeSummary || last.Summary == nil {
		t.Fatalf("stream did not end with a summary: %+v", last)
	}
	return last.Summary
}

// TestBatchStream pins the happy path: one submission, one job record
// per point in completion order, a terminal summary whose accounting
// adds up, and a second (warm) submission served from the cache without
// re-execution.
func TestBatchStream(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	build := testBuild(map[string]func() (json.RawMessage, error){
		"k1": func() (json.RawMessage, error) { execs.Add(1); return json.RawMessage(`{"v":1}`), nil },
		"k2": func() (json.RawMessage, error) { execs.Add(1); return json.RawMessage(`{"v":2}`), nil },
		"k3": func() (json.RawMessage, error) { execs.Add(1); return json.RawMessage(`{"v":3}`), nil },
	})
	srv := New(Config{Build: build, Cache: cache, Workers: 2, Queue: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, recs, _ := postBatch(t, ts, batchBody(t, "lab", "k1", "k2", "k3"))
	if code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	got := map[int]string{}
	for _, rec := range recs[:len(recs)-1] {
		if rec.Type != paper.BatchTypeJob || rec.Job == nil {
			t.Fatalf("unexpected mid-stream record: %+v", rec)
		}
		if rec.Job.Error != "" {
			t.Fatalf("job %d failed: %s", rec.Job.Index, rec.Job.Error)
		}
		got[rec.Job.Index] = string(rec.Job.Result)
	}
	want := map[int]string{0: `{"v":1}`, 1: `{"v":2}`, 2: `{"v":3}`}
	if len(got) != 3 {
		t.Fatalf("job records = %v", got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("job %d result = %s, want %s", i, got[i], w)
		}
	}
	sum := lastSummary(t, recs)
	if sum.Jobs != 3 || sum.Completed != 3 || sum.Failed != 0 || sum.Pending != 0 || sum.Executed != 3 {
		t.Fatalf("cold summary = %+v", sum)
	}
	if execs.Load() != 3 {
		t.Fatalf("executed %d, want 3", execs.Load())
	}

	// Warm pass: same campaign, zero simulations.
	_, _, recs2, _ := postBatch(t, ts, batchBody(t, "lab", "k1", "k2", "k3"))
	sum2 := lastSummary(t, recs2)
	if sum2.Completed != 3 || sum2.Cached != 3 || sum2.Executed != 0 {
		t.Fatalf("warm summary = %+v", sum2)
	}
	if execs.Load() != 3 {
		t.Fatalf("warm pass re-executed: %d", execs.Load())
	}
	st := srv.Stats()
	if st.BatchRequests != 2 || st.BatchJobs != 6 || st.BatchCompleted != 6 ||
		st.BatchFailed != 0 || st.BatchCursorCuts != 0 {
		t.Fatalf("batch stats = %+v", st)
	}
}

// TestBatchValidation pins the refusal envelope: everything wrong with a
// batch is a diagnosable pre-stream status, never a torn stream.
func TestBatchValidation(t *testing.T) {
	srv := New(Config{Build: testBuild(nil), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", `{{{`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"server-side suite", `{"suite":"table1"}`, http.StatusBadRequest},
		{"bad spec", `{"specs":[{"kernel":"k","seed":1,"config":"warp"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, _, jr := postBatch(t, ts, tc.body)
		if code != tc.want {
			t.Errorf("%s: code %d, want %d (%+v)", tc.name, code, tc.want, jr)
		}
	}
	// A spec the builder rejects names its index.
	code, _, _, jr := postBatch(t, ts, batchBody(t, "", "ok", "reject-me"))
	if code != http.StatusBadRequest || !strings.Contains(jr.Error, "batch spec 1") {
		t.Fatalf("builder rejection: code=%d resp=%+v", code, jr)
	}
	// Method discipline.
	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch: code %d", resp.StatusCode)
	}
}

// TestBatchQuotaWholeBatch: admission charges the full job list against
// the tenant quota and its footprint against the queue. A batch that can
// never fit — more specs than the quota, or min(specs, Workers) beyond
// the queue — is refused before admission with a terminal 413 naming the
// size and the bound, so a client fails after one request instead of
// waiting out its retry budget. A fitting batch is admitted and releases
// its charge when it completes. (A quota full of in-flight work is the
// retryable case: TestServeTenantQuota.)
func TestBatchQuotaWholeBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound string
		stat  func(Stats) uint64
	}{
		{"quota", Config{Workers: 2, Queue: 16, TenantQuota: 2}, "tenant quota of 2",
			func(st Stats) uint64 { return st.RejectedQuota }},
		{"queue", Config{Workers: 4, Queue: 2}, "queue of 2",
			func(st Stats) uint64 { return st.RejectedQueue }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Build = testBuild(nil)
			srv := New(tc.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			code, _, _, jr := postBatch(t, ts, batchBody(t, "lab", "a", "b", "c"))
			if code != http.StatusRequestEntityTooLarge || jr.Retryable ||
				!strings.Contains(jr.Error, "batch of 3 specs") || !strings.Contains(jr.Error, tc.bound) {
				t.Fatalf("never-admissible batch: code=%d resp=%+v", code, jr)
			}
			if n := tc.stat(srv.Stats()); n != 1 {
				t.Fatalf("rejection not counted: stats = %+v", srv.Stats())
			}
			before := srv.Stats().Requests
			c := &Client{BaseURL: ts.URL, Tenant: "lab"}
			specs := []paper.JobSpec{{Kernel: "a"}, {Kernel: "b"}, {Kernel: "c"}}
			if _, err := c.RunBatch(context.Background(), specs); err == nil {
				t.Fatal("RunBatch over a never-admissible batch succeeded")
			}
			if n := srv.Stats().Requests - before; n != 1 {
				t.Fatalf("RunBatch sent %d requests, want 1", n)
			}
			// A fitting batch is admitted, and its release leaves the bounds clean.
			for i := 0; i < 2; i++ {
				code, _, recs, _ := postBatch(t, ts, batchBody(t, "lab", "a", "b"))
				if code != http.StatusOK || lastSummary(t, recs).Completed != 2 {
					t.Fatalf("fitting batch round %d: code %d", i, code)
				}
			}
		})
	}
}

// TestLimiterBatchAdmission pins admitN's two-sided policy: the quota is
// strict all-or-nothing, while the rate bucket admits on one available
// token and overdrafts — so a batch larger than the burst is never
// refused forever, but the tenant pays for it in wait afterwards.
func TestLimiterBatchAdmission(t *testing.T) {
	l := newLimiter(1, 2, 10)
	clock := time.Unix(2000, 0)
	l.now = func() time.Time { return clock }

	// Burst 2, batch of 5: admitted (>= 1 token), bucket goes to -3.
	if _, ok := l.admitN("a", 5); !ok {
		t.Fatal("overdraft batch refused")
	}
	// The next admission must wait out the overdraft: (1 - (-3))/rate = 4s.
	wait, ok := l.admitN("a", 1)
	if ok || wait < 3500*time.Millisecond || wait > 4500*time.Millisecond {
		t.Fatalf("post-overdraft admit: ok=%v wait=%v", ok, wait)
	}
	// After the wait the bucket has recovered exactly one token.
	clock = clock.Add(4 * time.Second)
	if _, ok := l.admitN("a", 1); !ok {
		t.Fatal("admit after overdraft recovery refused")
	}
	l.releaseN("a", 6)

	// Quota is strict: 10-slot quota, 6 in flight, batch of 5 refused
	// whole with wait 0 (retry when slots free), batch of 4 fits. The
	// hour-long refill isolates the quota side from the rate bucket.
	clock = clock.Add(time.Hour)
	if _, ok := l.admitN("a", 6); !ok {
		t.Fatal("6-slot batch refused")
	}
	wait, ok = l.admitN("a", 5)
	if ok || wait != 0 {
		t.Fatalf("over-quota batch: ok=%v wait=%v", ok, wait)
	}
	clock = clock.Add(time.Hour)
	if _, ok := l.admitN("a", 4); !ok {
		t.Fatal("fitting 4-slot batch refused")
	}
	l.releaseN("a", 10)
	clock = clock.Add(time.Hour)
	if _, ok := l.admitN("a", 10); !ok {
		t.Fatal("full-quota batch after release refused")
	}
}

// TestBatchDedupOneSpecOntoBatch: a one-spec batch (a single point) for
// a key that a concurrent multi-spec batch is already simulating
// coalesces onto that batch's flight — one simulation, shared result.
func TestBatchDedupOneSpecOntoBatch(t *testing.T) {
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
	srv := New(Config{Build: build, Workers: 2, Queue: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	recsCh := make(chan []paper.BatchRecord, 1)
	go func() {
		_, _, recs, _ := postBatch(t, ts, batchBody(t, "", "slow", "fast"))
		recsCh <- recs
	}()
	<-leading // the multi-spec batch leads the flight
	done := make(chan pointReply, 1)
	go func() {
		done <- postPoint(t, ts, pointBody("slow", "", 0))
	}()
	waitFor(t, "the one-spec batch to coalesce onto the batch's flight", func() bool {
		return srv.eng.Flights().Shared == 1
	})
	close(gate)
	r := <-done
	if r.job == nil || !r.job.Shared || string(r.job.Result) != `{"ok":true}` {
		t.Fatalf("one-spec waiter: %+v", r.job)
	}
	if r.summary.Completed != 1 || r.summary.Deduped != 1 || r.summary.Executed != 0 {
		t.Fatalf("one-spec summary = %+v", r.summary)
	}
	recs := <-recsCh
	if sum := lastSummary(t, recs); sum.Completed != 2 || sum.Executed != 2 {
		t.Fatalf("batch summary = %+v", sum)
	}
	if execs.Load() != 1 {
		t.Fatalf("shared key executed %d times", execs.Load())
	}
}

// TestBatchDrainCursor is the drain-semantics drill: a drain begun
// mid-batch lets the in-flight point finish (and land in the cache),
// never claims the rest, and ends the stream with a cursor naming
// exactly the unfinished keys. Re-submitting the same campaign against a
// fresh server over the same cache re-executes exactly the cursor's jobs
// — the completed ones are cache hits.
func TestBatchDrainCursor(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	leading := make(chan struct{})
	var execs atomic.Int64
	runs := map[string]func() (json.RawMessage, error){
		"fast": func() (json.RawMessage, error) { execs.Add(1); return json.RawMessage(`{"v":0}`), nil },
		"slow": func() (json.RawMessage, error) {
			execs.Add(1)
			close(leading)
			<-gate
			return json.RawMessage(`{"v":1}`), nil
		},
		"never": func() (json.RawMessage, error) { execs.Add(1); return json.RawMessage(`{"v":2}`), nil },
	}
	srv := New(Config{Build: testBuild(runs), Cache: cache, Workers: 1, Queue: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A job record names its point by index: the key of the spec
	// submitted there.
	names := []string{"fast", "slow", "never"}
	recsCh := make(chan []paper.BatchRecord, 1)
	go func() {
		// Workers:1 claims in index order: fast completes, slow blocks,
		// never stays unclaimed when the drain lands.
		_, _, recs, _ := postBatch(t, ts, batchBody(t, "", names...))
		recsCh <- recs
	}()
	<-leading
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, "drain to start", func() bool { return srv.State() == StateDraining })
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain with a batch in flight: %v", err)
	}
	recs := <-recsCh

	// The stream: fast and slow completed, a cursor names "never", the
	// summary balances and reports the server draining.
	var cursor []string
	completed := map[string]bool{}
	for _, rec := range recs {
		switch rec.Type {
		case paper.BatchTypeJob:
			if rec.Job.Error != "" {
				t.Fatalf("job record with error: %+v", rec.Job)
			}
			completed["test|"+names[rec.Job.Index]] = true
		case paper.BatchTypeCursor:
			cursor = rec.Pending
		}
	}
	if !completed["test|fast"] || !completed["test|slow"] || len(completed) != 2 {
		t.Fatalf("completed = %v", completed)
	}
	if len(cursor) != 1 || cursor[0] != "test|never" {
		t.Fatalf("cursor = %v, want [test|never]", cursor)
	}
	sum := lastSummary(t, recs)
	if sum.Jobs != 3 || sum.Completed != 2 || sum.Pending != 1 || sum.State != "draining" {
		t.Fatalf("summary = %+v", sum)
	}
	if st := srv.Stats(); st.BatchCursorCuts != 1 || st.BatchCompleted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if execs.Load() != 2 {
		t.Fatalf("cut batch executed %d points, want 2", execs.Load())
	}

	// Resume against a fresh server over the same cache: the whole
	// campaign re-submitted costs exactly the cursor's one simulation.
	cache2, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Build: testBuild(runs), Cache: cache2, Workers: 1, Queue: 16})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, _, recs2, _ := postBatch(t, ts2, batchBody(t, "", "fast", "slow", "never"))
	if code != http.StatusOK {
		t.Fatalf("resume batch: code %d", code)
	}
	sum2 := lastSummary(t, recs2)
	if sum2.Completed != 3 || sum2.Cached != 2 || sum2.Executed != 1 || sum2.Pending != 0 {
		t.Fatalf("resume summary = %+v", sum2)
	}
	if st := srv2.Stats(); st.CacheHits != 2 || st.Executed != 1 {
		t.Fatalf("resume stats = %+v", st)
	}
	if execs.Load() != 3 {
		t.Fatalf("resume executed %d total, want 3 (exactly the missing point)", execs.Load())
	}
}

// cutWriter aborts the connection after cutAt body writes — a proxy
// dying mid-stream, as seen by the client.
type cutWriter struct {
	http.ResponseWriter
	writes, cutAt int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes > c.cutAt {
		panic(http.ErrAbortHandler)
	}
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestBatchClientReconnect: a connection killed after two job records is
// resumed by RunBatch — one reconnect, only the incomplete points
// re-submitted, every key still executed exactly once.
func TestBatchClientReconnect(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	execs := make(map[string]int)
	build := func(spec paper.JobSpec) (sweep.Job[json.RawMessage], error) {
		key := "test|" + spec.Kernel
		payload := json.RawMessage(fmt.Sprintf(`{"kernel":%q}`, spec.Kernel))
		return sweep.Job[json.RawMessage]{Key: key, Run: func() (json.RawMessage, error) {
			mu.Lock()
			execs[key]++
			mu.Unlock()
			return payload, nil
		}}, nil
	}
	srv := New(Config{Build: build, Cache: cache, Workers: 4, Queue: 64})
	inner := srv.Handler()
	var cutDone atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && cutDone.CompareAndSwap(false, true) {
			w = &cutWriter{ResponseWriter: w, cutAt: 2}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	specs := make([]paper.JobSpec, 4)
	for i := range specs {
		specs[i] = paper.JobSpec{Kernel: fmt.Sprintf("r%d", i), Seed: 1, Config: "plain"}
	}
	c := &Client{BaseURL: ts.URL, Tenant: "cut", MaxWait: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raws, err := c.RunBatch(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range raws {
		want := fmt.Sprintf(`{"kernel":%q}`, specs[i].Kernel)
		if string(raw) != want {
			t.Fatalf("result %d = %s, want %s", i, raw, want)
		}
	}
	if c.Reconnects() == 0 {
		t.Fatal("cut stream resumed without a counted reconnect")
	}
	mu.Lock()
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times across the cut", key, n)
		}
	}
	mu.Unlock()
	if st := srv.Stats(); st.BatchRequests < 2 {
		t.Fatalf("expected a re-submission: %+v", st)
	}
}

// TestBatchHeartbeat: an idle stream (one slow point) carries keepalive
// records at the configured cadence.
func TestBatchHeartbeat(t *testing.T) {
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			time.Sleep(120 * time.Millisecond)
			return json.RawMessage(`{}`), nil
		},
	})
	srv := New(Config{Build: build, Workers: 1, Heartbeat: 15 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _, recs, _ := postBatch(t, ts, batchBody(t, "", "slow"))
	if code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	beats := 0
	for _, rec := range recs {
		if rec.Type == paper.BatchTypeHeartbeat {
			beats++
		}
	}
	if beats == 0 {
		t.Fatal("no heartbeat on an idle stream")
	}
	if sum := lastSummary(t, recs); sum.Completed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if st := srv.Stats(); st.BatchHeartbeats == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatchRetryableFailureRecord: a point that exhausts the server's
// transient-retry budget is reported retryable and left to the cursor;
// a terminal point is reported final and counted failed.
func TestBatchFailureTaxonomy(t *testing.T) {
	build := testBuild(map[string]func() (json.RawMessage, error){
		"flaky": func() (json.RawMessage, error) { return nil, fmt.Errorf("transient hiccup") },
	})
	srv := New(Config{Build: build, Workers: 1, Retry: sweep.RetryPolicy{Max: 1, Base: time.Millisecond, Cap: time.Millisecond}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, _, recs, _ := postBatch(t, ts, batchBody(t, "", "flaky"))
	var jobRec *paper.BatchJob
	var cursor []string
	for _, rec := range recs {
		switch rec.Type {
		case paper.BatchTypeJob:
			jobRec = rec.Job
		case paper.BatchTypeCursor:
			cursor = rec.Pending
		}
	}
	if jobRec == nil || !jobRec.Retryable || jobRec.Error == "" {
		t.Fatalf("retryable failure record = %+v", jobRec)
	}
	if len(cursor) != 1 || cursor[0] != "test|flaky" {
		t.Fatalf("cursor = %v", cursor)
	}
	sum := lastSummary(t, recs)
	if sum.Completed != 0 || sum.Failed != 0 || sum.Pending != 1 {
		t.Fatalf("summary = %+v", sum)
	}

	// Terminal: a job timeout fails the point for good.
	srv2 := New(Config{Build: testBuild(map[string]func() (json.RawMessage, error){
		"stuck": func() (json.RawMessage, error) {
			time.Sleep(200 * time.Millisecond)
			return json.RawMessage(`{}`), nil
		},
	}), Workers: 1, JobTimeout: 10 * time.Millisecond})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	_, _, recs2, _ := postBatch(t, ts2, batchBody(t, "", "stuck"))
	sum2 := lastSummary(t, recs2)
	if sum2.Failed != 1 || sum2.Pending != 0 || sum2.Completed != 0 {
		t.Fatalf("terminal summary = %+v", sum2)
	}
	var term *paper.BatchJob
	for _, rec := range recs2 {
		if rec.Type == paper.BatchTypeJob {
			term = rec.Job
		}
	}
	if term == nil || term.Retryable || term.Error == "" {
		t.Fatalf("terminal record = %+v", term)
	}
}

// TestBatchCountsEachJobOnce pins the job accounting: every batch job
// lands in exactly one of cache_hits, deduped, executed, failed and
// expired, and the streams' summaries classify the same jobs the same way
// as /v1/stats. Concurrent warm batches put points onto flights whose
// leader reads the cache (cache hits, for leader and waiters alike); one
// injected cancel cuts a waiter on a slow flight (expired, never also
// deduped) while the flight's leader still executes.
func TestBatchCountsEachJobOnce(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate, leading := make(chan struct{}), make(chan struct{})
	build := testBuild(map[string]func() (json.RawMessage, error){
		"slow": func() (json.RawMessage, error) {
			close(leading)
			<-gate
			return json.RawMessage(`{"slow":true}`), nil
		},
	})
	srv := New(Config{Build: build, Cache: cache, Workers: 4, Queue: 256,
		Faults: &Faults{CancelRate: 1, CancelAfter: 100 * time.Millisecond}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu   sync.Mutex
		sums []paper.BatchSummary
	)
	post := func(names ...string) {
		_, _, recs, _ := postBatch(t, ts, batchBody(t, "", names...))
		sum := lastSummary(t, recs)
		mu.Lock()
		sums = append(sums, *sum)
		mu.Unlock()
	}
	warm := make([]string, 32)
	for i := range warm {
		warm[i] = fmt.Sprintf("w%02d", i)
	}
	post(warm...) // fills the cache
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				post(warm...)
			}
		}()
	}
	wg.Wait()

	leaderDone := make(chan struct{})
	go func() {
		post("slow")
		close(leaderDone)
	}()
	<-leading
	post("slow") // joins the slow flight; the injected cancel cuts it
	close(gate)
	<-leaderDone

	st := srv.Stats()
	var tot paper.BatchSummary
	for _, s := range sums {
		tot.Jobs += s.Jobs
		tot.Failed += s.Failed
		tot.Pending += s.Pending
		tot.Cached += s.Cached
		tot.Deduped += s.Deduped
		tot.Executed += s.Executed
	}
	if got := st.CacheHits + st.Deduped + st.Executed + st.Failed + st.Expired; got != st.BatchJobs || uint64(tot.Jobs) != st.BatchJobs {
		t.Fatalf("%d jobs resolved, %d in the summaries, %d submitted; stats = %+v", got, tot.Jobs, st.BatchJobs, st)
	}
	if uint64(tot.Cached) != st.CacheHits || uint64(tot.Deduped) != st.Deduped ||
		uint64(tot.Executed) != st.Executed || uint64(tot.Failed+tot.Pending) != st.Failed+st.Expired {
		t.Fatalf("summaries %+v disagree with stats %+v", tot, st)
	}
	if st.Expired == 0 || st.Executed != uint64(len(warm)+1) {
		t.Fatalf("want the cut waiter expired and every key executed once: %+v", st)
	}
}

// TestWarmBatchReadsNoDisk: on a server over a pre-filled cache, the
// first batch reads each entry from disk once and keeps it resident, so
// an identical second batch is served entirely from memory: it still
// answers after every entry file is deleted, /v1/stats counts each of its
// hits as resident, and nothing is simulated.
func TestWarmBatchReadsNoDisk(t *testing.T) {
	dir := t.TempDir()
	names := make([]string, 12)
	fill, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = fmt.Sprintf("k%02d", i)
		if err := fill.Put("test|"+names[i], json.RawMessage(fmt.Sprintf(`{"kernel":%q}`, names[i]))); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() (json.RawMessage, error){}
	for _, n := range names {
		runs[n] = func() (json.RawMessage, error) {
			t.Errorf("a warm batch simulated a cached point")
			return nil, fmt.Errorf("not cached")
		}
	}
	srv := New(Config{Build: testBuild(runs), Cache: cache, Workers: 2, Queue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := func() {
		t.Helper()
		code, _, recs, _ := postBatch(t, ts, batchBody(t, "", names...))
		if code != http.StatusOK {
			t.Fatalf("batch: code %d", code)
		}
		if sum := lastSummary(t, recs); sum.Cached != len(names) || sum.Completed != len(names) {
			t.Fatalf("summary %+v, want %d cached", sum, len(names))
		}
		for _, rec := range recs[:len(recs)-1] {
			if rec.Job == nil || string(rec.Job.Result) != fmt.Sprintf(`{"kernel":%q}`, names[rec.Job.Index]) {
				t.Fatalf("record %+v", rec)
			}
		}
	}
	batch()
	if st := srv.Stats(); st.CacheResident != 0 || st.CacheHits != uint64(len(names)) {
		t.Fatalf("first batch: stats %+v, want every hit read from disk", st)
	}
	tops, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range tops {
		if err := os.RemoveAll(filepath.Join(dir, top.Name())); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	st := srv.Stats()
	if st.CacheResident != uint64(len(names)) || st.CacheHits != 2*uint64(len(names)) || st.Executed != 0 {
		t.Fatalf("second batch: stats %+v, want its %d hits resident", st, len(names))
	}
	if cs := cache.Stats(); cs.Misses != 0 || cs.Hits != 2*uint64(len(names)) {
		t.Fatalf("cache stats %+v", cs)
	}
}

// TestPrettyCacheEntryStreamsOneLine: a cache entry hand-edited into a
// pretty-printed value over several lines still streams as one NDJSON
// line, and the client gets the compact value json.Encoder would write.
func TestPrettyCacheEntryStreamsOneLine(t *testing.T) {
	dir := t.TempDir()
	fill, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const compact = `{"Cycles":7,"Activity":{"CoreRun":3.5,"TCDM":[1,2]}}`
	if err := fill.Put("test|pretty", json.RawMessage(compact)); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entry files %v, %v", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	if bytes.Count(pretty.Bytes(), []byte("\n")) < 5 {
		t.Fatalf("indented entry is not multi-line: %s", pretty.Bytes())
	}
	if err := os.WriteFile(entries[0], pretty.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Build: testBuild(map[string]func() (json.RawMessage, error){
		"pretty": func() (json.RawMessage, error) { return nil, fmt.Errorf("cached point simulated") },
	}), Cache: cache, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batchBody(t, "", "pretty")))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	want := `{"type":"job","job":{"index":0,"cached":true,"result":` + compact + `}}`
	if len(lines) != 2 || lines[0] != want {
		t.Fatalf("stream %q, want the job line %q and the summary", body, want)
	}

	c := &Client{BaseURL: ts.URL}
	raws, err := c.RunBatch(context.Background(), []paper.JobSpec{{Kernel: "pretty", Seed: 1, Config: "plain"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(raws[0]) != compact {
		t.Fatalf("client got %s, want %s", raws[0], compact)
	}
}
