package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestRunNotifySerializedCompletions: every job is notified exactly once
// with its own index, key and value, and the callbacks never overlap —
// the serialization a streaming consumer relies on to write NDJSON
// records without its own lock.
func TestRunNotifySerializedCompletions(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		eng := New(Config{Workers: workers})
		const n = 64
		jobs := make([]Job[int], n)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Key: fmt.Sprintf("job-%d", i),
				Run: func() (int, error) { return i * i, nil },
			}
		}
		var inside atomic.Int32
		seen := make([]int, n) // written only from the serialized callback
		count := 0
		err := RunNotify(eng, context.Background(), jobs, func(c Completion[int]) {
			if inside.Add(1) != 1 {
				t.Error("notify callbacks overlapped")
			}
			defer inside.Add(-1)
			if c.Err != nil {
				t.Errorf("job %d: %v", c.Index, c.Err)
			}
			if c.Key != fmt.Sprintf("job-%d", c.Index) || c.Value != c.Index*c.Index {
				t.Errorf("completion mismatch: %+v", c)
			}
			seen[c.Index]++
			count++
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count != n {
			t.Fatalf("workers=%d: %d completions, want %d", workers, count, n)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("workers=%d: job %d notified %d times", workers, i, v)
			}
		}
	}
}

// TestRunNotifyContinuesPastFailures: unlike Run, individual failures do
// not stop the batch — every job is still claimed and notified, failures
// carry their typed error, and RunNotify itself returns nil. The
// consumer owns the failure policy.
func TestRunNotifyContinuesPastFailures(t *testing.T) {
	eng := New(Config{Workers: 4})
	boom := errors.New("boom")
	const n = 32
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func() (int, error) {
				if i%5 == 0 {
					return 0, boom
				}
				return i, nil
			},
		}
	}
	var ok, failed int
	err := RunNotify(eng, context.Background(), jobs, func(c Completion[int]) {
		if c.Index%5 == 0 {
			if !errors.Is(c.Err, boom) {
				t.Errorf("job %d: err = %v, want boom", c.Index, c.Err)
			}
			failed++
			return
		}
		if c.Err != nil || c.Value != c.Index {
			t.Errorf("job %d: (%d, %v)", c.Index, c.Value, c.Err)
		}
		ok++
	})
	if err != nil {
		t.Fatalf("RunNotify = %v, want nil (failures are the consumer's problem)", err)
	}
	if failed != 7 || ok != n-7 {
		t.Fatalf("failed=%d ok=%d, want 7/%d", failed, ok, n-7)
	}
}

// TestRunNotifyCancellation: when the batch context ends, workers stop
// claiming; claimed jobs finish and are notified, unclaimed jobs are
// never notified (they are the caller's resumable remainder), and
// RunNotify returns the context error.
func TestRunNotifyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(Config{Workers: 1})
	const n = 10
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func() (int, error) {
				if i == 0 {
					cancel() // cut the batch from inside the first claim
				}
				return i, nil
			},
		}
	}
	notified := make(map[int]bool)
	err := RunNotify(eng, ctx, jobs, func(c Completion[int]) {
		notified[c.Index] = true
		if c.Err != nil {
			t.Errorf("claimed job %d failed: %v", c.Index, c.Err)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunNotify = %v, want context.Canceled", err)
	}
	// With one worker, job 0 was claimed before the cancel landed; at most
	// one more claim can race the cancellation. Everything else is the
	// untouched remainder.
	if !notified[0] {
		t.Fatal("claimed job 0 was not notified")
	}
	if len(notified) > 2 {
		t.Fatalf("%d jobs notified after the cut, want <= 2: %v", len(notified), notified)
	}
}

// TestRunNotifyCacheAccounting: a second pass over the same keys is
// served from the cache, with Hit set on every completion and the
// engine's stats accruing exactly as under Run.
func TestRunNotifyCacheAccounting(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	mk := func() []Job[int] {
		jobs := make([]Job[int], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Key: fmt.Sprintf("job-%d", i),
				Run: func() (int, error) { execs.Add(1); return i, nil },
			}
		}
		return jobs
	}
	eng := New(Config{Workers: 4, Cache: cache})
	if err := RunNotify(eng, context.Background(), mk(), func(c Completion[int]) {
		if c.Hit {
			t.Errorf("cold job %d claimed a cache hit", c.Index)
		}
	}); err != nil {
		t.Fatal(err)
	}
	hits := 0
	if err := RunNotify(eng, context.Background(), mk(), func(c Completion[int]) {
		if c.Err != nil || c.Value != c.Index {
			t.Errorf("warm job %d: (%d, %v)", c.Index, c.Value, c.Err)
		}
		if c.Hit {
			hits++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 8 || execs.Load() != 8 {
		t.Fatalf("warm pass: %d hits, %d executions; want 8 hits, 8 total executions", hits, execs.Load())
	}
	st := eng.Stats()
	if st.Jobs != 16 || st.Executed != 8 || st.CacheHits != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRunNotifyMatchesRun: Run and RunNotify are one worker loop, so one
// batch — cache hits and fresh runs mixed — driven through each from
// identical fresh state yields the same values and leaves the same engine
// and cache accounting and the same Progress series.
func TestRunNotifyMatchesRun(t *testing.T) {
	const n = 8 // jobs 0-3 cached, 4-7 fresh
	type outcome struct {
		values []payload
		hits   int
		events int
		stats  Stats
		cache  CacheStats
	}
	execute := func(notify bool) outcome {
		dir := t.TempDir()
		seedCache, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		val := func(i int) payload { return payload{Cycles: uint64(i * i), Eff: float64(i) / 4} }
		for i := 0; i < 4; i++ {
			if err := seedCache.Put(fmt.Sprintf("job-%d", i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		// A fresh handle, so the counters start from zero in both modes.
		cache, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}

		var o outcome
		eng := New(Config{Workers: 4, Cache: cache, Progress: func(Event) { o.events++ }})
		jobs := make([]Job[payload], n)
		for i := range jobs {
			i := i
			jobs[i] = Job[payload]{Key: fmt.Sprintf("job-%d", i), Run: func() (payload, error) { return val(i), nil }}
		}
		if notify {
			o.values = make([]payload, n)
			err = RunNotify(eng, context.Background(), jobs, func(c Completion[payload]) {
				if c.Err != nil {
					t.Errorf("job %d: %v", c.Index, c.Err)
				}
				o.values[c.Index] = c.Value
				if c.Hit {
					o.hits++
				}
			})
		} else {
			o.values, err = Run(eng, jobs)
			o.hits = eng.Stats().CacheHits
		}
		if err != nil {
			t.Fatal(err)
		}
		o.stats, o.cache = eng.Stats(), cache.Stats()
		return o
	}
	run, notify := execute(false), execute(true)
	if !reflect.DeepEqual(run, notify) {
		t.Fatalf("Run and RunNotify diverge:\nRun:       %+v\nRunNotify: %+v", run, notify)
	}
	want := Stats{Jobs: n, Executed: 4, CacheHits: 4}
	if run.stats != want || run.hits != 4 || run.events != n {
		t.Fatalf("outcome = %+v, want stats %+v, 4 hits, %d events", run, want, n)
	}
	// Fresh runs are cached.
	if run.cache.Hits != 4 || run.cache.Writes != 4 {
		t.Fatalf("cache %+v", run.cache)
	}
}
