package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls until cond holds or the test times out.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneEngineExecutesEachKeyOnce: concurrent RunNotify calls on one
// engine over the same keys share it as one completion path — every key
// is executed once (a later claimant joins the leader's flight or hits
// the entry it cached), and the engine's Workers slots bound the
// executions of all calls together, not of each call.
func TestOneEngineExecutesEachKeyOnce(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys, calls = 2, 8, 3
	eng := New(Config{Workers: workers, Cache: cache})
	var (
		mu            sync.Mutex
		execs         = map[string]int{}
		running, peak atomic.Int64
		leads         atomic.Int64
		wg            sync.WaitGroup
	)
	mk := func() []Job[int] {
		jobs := make([]Job[int], keys)
		for i := range jobs {
			i, key := i, fmt.Sprintf("k%d", i)
			jobs[i] = Job[int]{Key: key, Run: func() (int, error) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				mu.Lock()
				execs[key]++
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
				return i * i, nil
			}}
		}
		return jobs
	}
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			err := RunNotify(eng, context.Background(), mk(), func(c Completion[int]) {
				n++
				if c.Err != nil || c.Value != c.Index*c.Index {
					t.Errorf("job %d: (%d, %v)", c.Index, c.Value, c.Err)
				}
				if !c.Shared && !c.Hit {
					leads.Add(1)
				}
			})
			if err != nil || n != keys {
				t.Errorf("call: %d completions, err %v", n, err)
			}
		}()
	}
	wg.Wait()
	for key, n := range execs {
		if n != 1 {
			t.Errorf("key %s executed %d times, want 1", key, n)
		}
	}
	if len(execs) != keys || leads.Load() != keys {
		t.Fatalf("%d keys executed by %d leading completions, want %d", len(execs), leads.Load(), keys)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d simultaneous executions on a %d-worker engine", p, workers)
	}
	if st := eng.Stats(); st.Jobs != calls*keys || st.Executed != keys {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOneEngineWaiterDetaches: a call whose own ctx is cut detaches its
// waiting job — the completion carries the ctx error and is marked
// shared — and returns, while the leader, on another call, rides the
// simulation to completion and caches it.
func TestOneEngineWaiterDetaches(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: 2, Cache: cache})
	gate, leading := make(chan struct{}), make(chan struct{})
	job := Job[int]{Key: "k", Run: func() (int, error) {
		close(leading)
		<-gate
		return 7, nil
	}}
	leader := make(chan Completion[int], 1)
	go RunNotify(eng, context.Background(), []Job[int]{job}, func(c Completion[int]) { leader <- c })
	<-leading

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan Completion[int], 1)
	errc := make(chan error, 1)
	go func() {
		errc <- RunNotify(eng, ctx, []Job[int]{job}, func(c Completion[int]) { waiter <- c })
	}()
	waitUntil(t, "the second call to join the flight", func() bool { return eng.Flights().Shared == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cut waiter is stuck behind the leader")
	}
	if w := <-waiter; !w.Shared || !errors.Is(w.Err, context.Canceled) {
		t.Fatalf("detached waiter = %+v", w)
	}

	close(gate)
	if l := <-leader; l.Err != nil || l.Value != 7 || l.Shared || l.Hit {
		t.Fatalf("leader = %+v", l)
	}
	var v int
	if !cache.Get("k", &v) || v != 7 {
		t.Fatalf("leader's result not cached: %d", v)
	}
	if st := eng.Stats(); st.Jobs != 2 || st.Executed != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOneEngineTypeMismatch: the engine's flight carries values of any
// type, so a waiter whose job wants another result type under the same
// key gets an error, not a panic.
func TestOneEngineTypeMismatch(t *testing.T) {
	eng := New(Config{Workers: 2})
	gate, leading := make(chan struct{}), make(chan struct{})
	leader := make(chan Completion[int], 1)
	go RunNotify(eng, context.Background(), []Job[int]{{Key: "k", Run: func() (int, error) {
		close(leading)
		<-gate
		return 1, nil
	}}}, func(c Completion[int]) { leader <- c })
	<-leading
	waiter := make(chan Completion[string], 1)
	go RunNotify(eng, context.Background(), []Job[string]{{Key: "k", Run: func() (string, error) {
		return "", errors.New("waiter must not lead")
	}}}, func(c Completion[string]) { waiter <- c })
	waitUntil(t, "the string job to join the int flight", func() bool { return eng.Flights().Shared == 1 })
	close(gate)
	if l := <-leader; l.Err != nil || l.Value != 1 {
		t.Fatalf("leader = %+v", l)
	}
	if w := <-waiter; w.Err == nil || !strings.Contains(w.Err.Error(), "int") || !w.Shared {
		t.Fatalf("mismatched waiter = %+v", w)
	}
}

// TestSlotCoversOnlyExecution: Workers bounds executions, not cache
// traffic. On a one-worker engine whose only slot is held by a running
// job, a cache hit from another call still completes, and a leader in
// its put-retry backoff does not keep the next execution from starting.
func TestSlotCoversOnlyExecution(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put("warm", 1); err != nil {
		t.Fatal(err)
	}
	faults := &WriteFaults{}
	faults.FailFirst[FaultTempWrite] = 1
	faults.fail(FaultTempWrite, "next") // spend next's one failure: only slow's put retries
	cache.Faults = faults
	eng := New(Config{Workers: 1, Cache: cache,
		Retry: RetryPolicy{Max: 1, Base: 300 * time.Millisecond, Cap: 300 * time.Millisecond}})
	completions := func(jobs ...Job[int]) <-chan Completion[int] {
		ch := make(chan Completion[int], len(jobs))
		go RunNotify(eng, context.Background(), jobs, func(c Completion[int]) { ch <- c })
		return ch
	}
	wait := func(what string, ch <-chan Completion[int]) Completion[int] {
		t.Helper()
		select {
		case c := <-ch:
			return c
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		return Completion[int]{}
	}

	gate, running := make(chan struct{}), make(chan struct{})
	slow := completions(Job[int]{Key: "slow", Run: func() (int, error) {
		close(running)
		<-gate
		return 2, nil
	}})
	<-running
	if c := wait("a cache hit behind a held slot", completions(Job[int]{Key: "warm"})); !c.Hit || c.Value != 1 {
		t.Fatalf("warm completion = %+v", c)
	}
	close(gate)

	// "slow" has executed; its first Put fails and it backs off before
	// retrying, without its slot, so "next" executes meanwhile.
	next := completions(Job[int]{Key: "next", Run: func() (int, error) { return 3, nil }})
	var order []Completion[int]
	for len(order) < 2 {
		select {
		case c := <-slow:
			order = append(order, c)
		case c := <-next:
			order = append(order, c)
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for slow and next")
		}
	}
	if first := order[0]; first.Key != "next" || first.Err != nil || first.Value != 3 {
		t.Fatalf("first completion = %+v, want next's while slow retries its put", first)
	}
	if c := order[1]; c.Err != nil || c.Value != 2 {
		t.Fatalf("slow completion = %+v", c)
	}
	if st := eng.Stats(); st.PutRetries != 1 {
		t.Fatalf("stats = %+v, want slow's put retried", st)
	}
}
