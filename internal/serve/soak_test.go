package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// soakSeed is the fault-hook seed of a soak: def under plain `go test`,
// HETSIM_SOAK_SEED when set (`make serve-drill` draws a fresh one per
// run). The test logs the seed with the command that replays it.
func soakSeed(t *testing.T, def uint64) uint64 {
	t.Helper()
	seed := def
	if s := os.Getenv("HETSIM_SOAK_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HETSIM_SOAK_SEED %q", s)
		}
		seed = n
	}
	t.Logf("soak seed %d; replay with: make serve-drill SOAK_SEED=%d", seed, seed)
	return seed
}

// TestServeSoak is the per-point chaos drill of the serving layer (`make
// serve-drill`): a herd of clients, each submitting one point at a time
// as a one-spec batch, hammers a small key space through the retrying
// Client while the fault hook injects slow jobs, cache-write failures and
// mid-request cancellations. The assertions are the service's core
// promises under that weather:
//
//   - zero duplicated executions per key (dedup + cache, even with the
//     first two cache writes of every key failing),
//   - every client either gets the right bytes or a typed terminal error
//     (here: none are terminal, so all succeed),
//   - no stuck waiters (the test itself would time out),
//   - a clean drain afterwards, with readiness down.
func TestServeSoak(t *testing.T) {
	seed := soakSeed(t, 11)
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.Faults = &sweep.WriteFaults{}
	cache.Faults.FailFirst[sweep.FaultTempWrite] = 2 // every key's first two writes fail; retry budget covers them
	const keys = 20
	var mu sync.Mutex
	execs := make(map[string]int)
	build := func(spec paper.JobSpec) (sweep.Job[json.RawMessage], error) {
		key := "soak|" + spec.Kernel
		payload := json.RawMessage(fmt.Sprintf(`{"kernel":%q,"cycles":%d}`, spec.Kernel, len(spec.Kernel)))
		return sweep.Job[json.RawMessage]{Key: key, Run: func() (json.RawMessage, error) {
			mu.Lock()
			execs[key]++
			mu.Unlock()
			return payload, nil
		}}, nil
	}
	srv := New(Config{
		Build: build, Cache: cache, Workers: 4, Queue: 256,
		Retry: sweep.RetryPolicy{Max: 3, Base: time.Millisecond, Cap: 10 * time.Millisecond},
		Faults: &Faults{
			Seed:      seed,
			SlowEvery: 5, SlowDelay: 2 * time.Millisecond,
			CancelRate:  0.2, // a fifth of all requests lose their wait mid-flight
			CancelAfter: time.Millisecond,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL, Tenant: "soak", MaxAttempts: 20, MaxWait: 50 * time.Millisecond}
	const (
		clients = 8
		reqs    = 30
	)
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < reqs; i++ {
				kernel := fmt.Sprintf("k%02d", (c*reqs+i*7)%keys)
				raws, err := client.RunBatch(ctx, []paper.JobSpec{{Kernel: kernel, Seed: 1, Config: "plain"}})
				if err != nil {
					errc <- fmt.Errorf("client %d req %d (%s): %w", c, i, kernel, err)
					return
				}
				want := fmt.Sprintf(`{"kernel":%q,"cycles":%d}`, kernel, len(kernel))
				if string(raws[0]) != want {
					errc <- fmt.Errorf("client %d req %d: got %s, want %s", c, i, raws[0], want)
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Core soak assertion: under dedup + cache, every key simulated once.
	mu.Lock()
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want 1", key, n)
		}
	}
	nKeys := len(execs)
	mu.Unlock()
	st := srv.Stats()
	if nKeys == 0 || st.Executed != uint64(nKeys) {
		t.Fatalf("executed %d for %d keys; stats = %+v", st.Executed, nKeys, st)
	}
	// The deterministic fault fired: every key's first two cache writes
	// failed and were retried, and none ultimately failed. (The
	// probabilistic faults — slow jobs, injected cancellations — are
	// exercised too, but their observable counts depend on interleaving;
	// TestServeInjectedCancel pins the cancel path deterministically.)
	if st.PutRetries < uint64(2*nKeys) || st.PutFailures != 0 {
		t.Errorf("cache-write fault path unexercised or fatal: %+v", st)
	}
	t.Logf("soak stats: %+v, client reconnects %d", st, client.Reconnects())

	// Clean drain: nothing in flight, readiness down afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if srv.State() != StateStopped {
		t.Fatalf("state after drain = %v", srv.State())
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	if cs := cache.Stats(); cs.WriteFails != cache.Faults.Injected()[sweep.FaultTempWrite] {
		t.Fatalf("real cache writes failed during the soak: %+v", cs)
	}
}

// TestBatchSoak is the seeded chaos drill of the serving layer (`make
// serve-drill`): multi-spec campaigns and single points (one-spec
// batches) hammer the same overlapping key space through the retrying
// Client while the fault hook injects slow jobs, cache-write failures and
// mid-request cancellations — the cancellations cut streams mid-flight,
// forcing RunBatch's reconnect-and-resume path. A stats reader polls
// concurrently to put the batch counter discipline under the race
// detector. The promises under that weather:
//
//   - exactly-once execution per key across every campaign and point,
//     even when a cut batch is resumed (dedup + cache, even with the
//     first two cache writes of every key failing),
//   - every campaign eventually completes with the right bytes,
//   - no stuck waiters (the test itself would time out),
//   - a clean drain afterwards, with readiness down.
func TestBatchSoak(t *testing.T) {
	seed := soakSeed(t, 7)
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.Faults = &sweep.WriteFaults{}
	cache.Faults.FailFirst[sweep.FaultTempWrite] = 2 // every key's first two writes fail; retry budget covers them
	const keys = 20
	var mu sync.Mutex
	execs := make(map[string]int)
	build := func(spec paper.JobSpec) (sweep.Job[json.RawMessage], error) {
		key := "bsoak|" + spec.Kernel
		payload := json.RawMessage(fmt.Sprintf(`{"kernel":%q,"cycles":%d}`, spec.Kernel, len(spec.Kernel)))
		return sweep.Job[json.RawMessage]{Key: key, Run: func() (json.RawMessage, error) {
			mu.Lock()
			execs[key]++
			mu.Unlock()
			return payload, nil
		}}, nil
	}
	srv := New(Config{
		Build: build, Cache: cache, Workers: 4, Queue: 256,
		Retry: sweep.RetryPolicy{Max: 4, Base: time.Millisecond, Cap: 10 * time.Millisecond},
		Faults: &Faults{
			Seed:      seed,
			SlowEvery: 5, SlowDelay: 2 * time.Millisecond,
			CancelRate:  0.2, // cuts single points AND whole campaign streams
			CancelAfter: time.Millisecond,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL, Tenant: "bsoak", MaxAttempts: 40, MaxWait: 50 * time.Millisecond}

	// Concurrent stats reader: the batch counter group is multi-word and
	// mutex-guarded; polling it while streams update it is what puts the
	// torn-snapshot fix under the race detector.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := srv.Stats()
				if st.BatchCompleted > st.BatchJobs {
					t.Errorf("torn batch snapshot: %+v", st)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const (
		batchClients   = 4
		campaigns      = 8
		pointsPerBatch = 8
		soloClients    = 4
		soloReqs       = 20
	)
	// check compares served bytes against the build's payload.
	check := func(spec paper.JobSpec, raw json.RawMessage) error {
		want := fmt.Sprintf(`{"kernel":%q,"cycles":%d}`, spec.Kernel, len(spec.Kernel))
		if string(raw) != want {
			return fmt.Errorf("got %s, want %s", raw, want)
		}
		return nil
	}
	errc := make(chan error, batchClients+soloClients)
	for c := 0; c < batchClients; c++ {
		go func(c int) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < campaigns; i++ {
				specs := make([]paper.JobSpec, pointsPerBatch)
				for j := range specs {
					// Stride keeps keys unique within a batch while the
					// subsets overlap heavily across clients and campaigns.
					specs[j] = paper.JobSpec{
						Kernel: fmt.Sprintf("k%02d", (c*5+i*7+j*3)%keys),
						Seed:   1, Config: "plain",
					}
				}
				raws, err := client.RunBatch(ctx, specs)
				if err != nil {
					errc <- fmt.Errorf("batch client %d campaign %d: %w", c, i, err)
					return
				}
				for j, raw := range raws {
					if err := check(specs[j], raw); err != nil {
						errc <- fmt.Errorf("batch client %d campaign %d point %d: %w", c, i, j, err)
						return
					}
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < soloClients; c++ {
		go func(c int) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < soloReqs; i++ {
				spec := paper.JobSpec{Kernel: fmt.Sprintf("k%02d", (c*soloReqs+i*11)%keys), Seed: 1, Config: "plain"}
				raws, err := client.RunBatch(ctx, []paper.JobSpec{spec})
				if err != nil {
					errc <- fmt.Errorf("solo client %d req %d (%s): %w", c, i, spec.Kernel, err)
					return
				}
				if err := check(spec, raws[0]); err != nil {
					errc <- fmt.Errorf("solo client %d req %d: %w", c, i, err)
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < batchClients+soloClients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	// Core promise: every key simulated exactly once across all campaigns,
	// single points, cuts and resumes.
	mu.Lock()
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want 1", key, n)
		}
	}
	nKeys := len(execs)
	mu.Unlock()
	st := srv.Stats()
	if nKeys == 0 || st.Executed != uint64(nKeys) {
		t.Fatalf("executed %d for %d keys; stats = %+v", st.Executed, nKeys, st)
	}
	if st.BatchRequests < batchClients*campaigns+soloClients*soloReqs {
		t.Errorf("batch requests %d < %d submitted", st.BatchRequests, batchClients*campaigns+soloClients*soloReqs)
	}
	if st.BatchFailed != 0 {
		t.Errorf("batch points failed terminally under transient-only faults: %+v", st)
	}
	// The deterministic fault fired: every key's first two cache writes
	// failed and were retried, and none ultimately failed.
	if st.PutRetries < uint64(2*nKeys) || st.PutFailures != 0 {
		t.Errorf("cache-write fault path unexercised or fatal: %+v", st)
	}
	// Reconnects, cursor cuts and expired waits are probabilistic (the
	// seeded fault stream is drawn in request-arrival order), so they are
	// logged, not asserted; TestBatchDrainCursor and TestServeInjectedCancel
	// pin the cut paths deterministically.
	t.Logf("batch soak: %+v, client reconnects %d", st, client.Reconnects())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after batch soak: %v", err)
	}
	if srv.State() != StateStopped {
		t.Fatalf("state after drain = %v", srv.State())
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	if cs := cache.Stats(); cs.WriteFails != cache.Faults.Injected()[sweep.FaultTempWrite] {
		t.Fatalf("real cache writes failed during the batch soak: %+v", cs)
	}
}
