package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunOrdering checks the core guarantee: results come back indexed by
// submission order, regardless of worker count or completion order.
func TestRunOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		eng := New(Config{Workers: workers})
		jobs := make([]Job[int], 64)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Key: fmt.Sprintf("job-%d", i),
				Run: func() (int, error) { return i * i, nil },
			}
		}
		got, err := Run(eng, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunFirstError checks that a failing batch reports the lowest-indexed
// failure and that the pool stops claiming new jobs after it.
func TestRunFirstError(t *testing.T) {
	eng := New(Config{Workers: 4})
	var ran atomic.Int64
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job-%d", i),
			Run: func() (int, error) {
				ran.Add(1)
				if i == 3 || i == 7 {
					return 0, fmt.Errorf("boom %d", i)
				}
				return i, nil
			},
		}
	}
	_, err := Run(eng, jobs)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), `"job-3"`) || !strings.Contains(err.Error(), "boom 3") {
		t.Fatalf("error should name the lowest-indexed failure, got: %v", err)
	}
	if n := ran.Load(); n == 32 {
		t.Log("all jobs ran before the failure was observed (legal but unexpected at 4 workers)")
	}
}

// TestRunEmpty checks the zero-job edge case.
func TestRunEmpty(t *testing.T) {
	got, err := Run[int](New(Config{}), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("Run(nil) = %v, %v", got, err)
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(Config{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d, want >= 1", w)
	}
	if w := New(Config{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}

type payload struct {
	Cycles uint64
	Eff    float64
	Tags   []string
}

// TestCacheRoundTrip checks hit/miss accounting and that a cached value
// decodes identically to the stored one.
func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Cycles: 12345, Eff: 0.875, Tags: []string{"a", "b"}}
	var got payload
	if c.Get("k1", &got) {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("k1", want)
	if !c.Get("k1", &got) {
		t.Fatal("expected hit after put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if c.Get("k2", &got) {
		t.Fatal("unexpected hit for a different key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Writes != 1 || st.WriteFails != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheCorruptionIsMiss checks that truncated, invalid and
// wrong-version entries degrade to misses rather than wrong results. Each
// is read through a fresh Open, a new process's view: the writer's own
// Cache holds its Put resident and never rereads the file.
func TestCacheCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", payload{Cycles: 7})
	path := c.path("k")

	cases := map[string][]byte{
		"truncated":     []byte(`{"version":`),
		"wrong version": mustJSON(t, entry{Version: Version + 1, Key: "k", Value: []byte(`{"Cycles":7}`)}),
		"wrong key":     mustJSON(t, entry{Version: Version, Key: "other", Value: []byte(`{"Cycles":7}`)}),
		"bad value":     mustJSON(t, entry{Version: Version, Key: "k", Value: []byte(`"nope"`)}),
	}
	for name, b := range cases {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		var got payload
		if c.Get("k", &got) {
			t.Errorf("%s: expected a miss", name)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineCaching checks the end-to-end memoization path: a second
// engine over the same cache executes nothing, a key change re-runs, and
// a cache left by a killed campaign resumes it.
func TestEngineCaching(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	mkJobs := func(prefix string) []Job[payload] {
		jobs := make([]Job[payload], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[payload]{
				Key: fmt.Sprintf("%s-%d", prefix, i),
				Run: func() (payload, error) {
					calls.Add(1)
					return payload{Cycles: uint64(i), Eff: float64(i) / 8}, nil
				},
			}
		}
		return jobs
	}
	eng1 := New(Config{Workers: 4, Cache: c1})
	first, err := Run(eng1, mkJobs("p"))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("cold run executed %d jobs, want 8", calls.Load())
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := New(Config{Workers: 4, Cache: c2})
	second, err := Run(eng2, mkJobs("p"))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("warm run executed %d extra jobs, want 0", calls.Load()-8)
	}
	if st := eng2.Stats(); st.Executed != 0 || st.CacheHits != 8 {
		t.Fatalf("warm stats = %+v", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached results differ:\n%+v\n%+v", first, second)
	}

	// A changed key must not be served from the old entries.
	if _, err := Run(eng2, mkJobs("q")); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 16 {
		t.Fatalf("changed keys executed %d jobs, want 8", calls.Load()-8)
	}

	// A campaign killed after committing its first k entries, while a
	// writer was between its temp file and the rename and another left
	// entry k torn, resumes from the cache: k hits, the other n−k jobs
	// (the torn one among them) run, and the values match a run without
	// a cache.
	const k = 3
	killed := t.TempDir()
	c3, err := Open(killed)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range first[:k] {
		if err := c3.Put(fmt.Sprintf("p-%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	plant := func(path string, b []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant(c3.path(fmt.Sprintf("p-%d", k)), []byte(fmt.Sprintf(`{"version":%d,"key":"p-%d","val`, Version, k)))
	plant(c3.path(fmt.Sprintf("p-%d", k+1))+".tmp123", mustJSON(t, first[k+1]))
	c4, err := Open(killed)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	eng4 := New(Config{Workers: 4, Cache: c4})
	resumed, err := Run(eng4, mkJobs("p"))
	if err != nil {
		t.Fatal(err)
	}
	if st := eng4.Stats(); st.CacheHits != k || st.Executed != 8-k || calls.Load() != 8-k {
		t.Fatalf("resume stats = %+v after %d calls, want %d hits and %d executed", st, calls.Load(), k, 8-k)
	}
	if cs := c4.Stats(); cs.Corrupt != 1 {
		t.Fatalf("resume cache stats = %+v, want 1 corrupt", cs)
	}
	uncached, err := Run(New(Config{Workers: 4}), mkJobs("p"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, uncached) {
		t.Fatalf("resumed results differ:\n%+v\n%+v", resumed, uncached)
	}
}

// TestProgressEvents checks that progress callbacks arrive serialized, in
// Done order, and end at Done == Total.
func TestProgressEvents(t *testing.T) {
	var events []Event
	eng := New(Config{Workers: 8, Progress: func(ev Event) { events = append(events, ev) }})
	jobs := make([]Job[int], 20)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("j%d", i), Run: func() (int, error) { return 0, nil }}
	}
	if _, err := Run(eng, jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("got %d events, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 20 {
			t.Fatalf("event %d = %+v, want Done=%d Total=20", i, ev, i+1)
		}
	}
}

// TestCacheFanout sanity-checks the on-disk layout (256-way fanout).
func TestCacheFanout(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := c.path("some-key")
	rel, err := filepath.Rel(c.Dir(), p)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 2 || len(parts[0]) != 2 || !strings.HasSuffix(parts[1], ".json") {
		t.Fatalf("unexpected cache layout: %s", rel)
	}
}
