package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicFailsOneJobNotTheProcess checks worker hardening: a panicking
// job becomes a typed *PanicError carrying the panic value and stack, its
// siblings still execute, and the process survives.
func TestPanicFailsOneJobNotTheProcess(t *testing.T) {
	e := New(Config{Workers: 2})
	var ran atomic.Int64
	sibling := make(chan struct{})
	jobs := make([]Job[int], 6)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: "ok", Run: func() (int, error) {
			if ran.Add(1) == 1 {
				close(sibling)
			}
			return i, nil
		}}
	}
	// The panicking job waits until one sibling has completed, so the
	// isolation claim — siblings finish, the panicker fails alone — is
	// deterministic rather than a scheduling race.
	jobs[0] = Job[int]{Key: "boom", Run: func() (int, error) {
		<-sibling
		panic("seu in the scheduler")
	}}
	_, err := Run(e, jobs)
	if err == nil {
		t.Fatal("batch with a panicking job must fail")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
	if pe.Value != "seu in the scheduler" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "harden_test") {
		t.Fatal("panic stack does not point at the panicking job")
	}
	// Workers stop claiming after a failure, but the jobs already in
	// flight on the second worker completed; at least one sibling ran.
	if ran.Load() == 0 {
		t.Fatal("no sibling job completed alongside the panic")
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := New(Config{Workers: 1, JobTimeout: 5 * time.Millisecond})
	_, err := Run(e, []Job[int]{
		{Key: "stuck", Run: func() (int, error) {
			<-release // hung simulation
			return 0, nil
		}},
	})
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("err = %v, want ErrJobTimeout", err)
	}
}

func TestJobTimeoutNotTriggeredByFastJobs(t *testing.T) {
	e := New(Config{Workers: 2, JobTimeout: time.Minute})
	res, err := Run(e, []Job[int]{
		{Key: "a", Run: func() (int, error) { return 1, nil }},
		{Key: "b", Run: func() (int, error) { return 2, nil }},
	})
	if err != nil || res[0] != 1 || res[1] != 2 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestCancellationStopsClaiming checks SIGINT semantics: once the context
// is cancelled, workers stop claiming jobs, Run reports the context error,
// and the remaining jobs never execute.
func TestCancellationStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New(Config{Workers: 1, Context: ctx})
	var ran atomic.Int64
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{Key: "j", Run: func() (int, error) {
			if ran.Add(1) == 2 {
				cancel() // "SIGINT" lands while job 2 is in flight
			}
			return 0, nil
		}}
	}
	_, err := Run(e, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Job 2 saw the cancel mid-run and still finished; nothing after the
	// next claim check may start.
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d jobs ran after cancellation, want 2", got)
	}
	if e.Context().Err() == nil {
		t.Fatal("engine context must report cancellation")
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 4, Context: ctx})
	var ran atomic.Int64
	jobs := []Job[int]{{Key: "j", Run: func() (int, error) { ran.Add(1); return 0, nil }}}
	if _, err := Run(e, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("job ran under a pre-cancelled context")
	}
}

// TestTruncatedCacheFileIsCountedMiss is the regression for interrupted
// writers on non-atomic filesystems: a zero-length or truncated entry
// must cost exactly one re-simulation — a counted miss, never an error or
// a wrong result. An entry of another format version or another key is
// the same kind of miss. Every case is read both into a typed value, as
// chaos trials are, and into a *json.RawMessage, as campaign points and
// the server are (it takes the value from the entry's one decode). An
// entry is immutable once renamed into place, so a live Cache keeps what
// it has served resident and never sees an edit made behind its back;
// each tampered entry is therefore read through a fresh Open of the
// directory, which is a new process's view.
func TestTruncatedCacheFileIsCountedMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", payload{Cycles: 9})
	path := c.path("k")
	dests := []struct {
		name string
		new  func() any
		hit  func(out any) bool // out holds the value Put stored
	}{
		{"typed", func() any { return new(payload) }, func(out any) bool { return out.(*payload).Cycles == 9 }},
		{"raw", func() any { return new(json.RawMessage) }, func(out any) bool {
			var p payload
			return json.Unmarshal(*out.(*json.RawMessage), &p) == nil && p.Cycles == 9
		}},
	}
	for _, tc := range []struct {
		name string
		b    string
	}{
		{"zero-length", ""},
		{"truncated", `{"version":2,"key":"k","val`},
		{"version mismatch", fmt.Sprintf(`{"version":%d,"key":"k","value":{"Cycles":9}}`, Version+1)},
		{"key mismatch", fmt.Sprintf(`{"version":%d,"key":"other","value":{"Cycles":9}}`, Version)},
		{"no value", fmt.Sprintf(`{"version":%d,"key":"k"}`, Version)},
	} {
		for _, d := range dests {
			name := tc.name + "/" + d.name
			if err := os.WriteFile(path, []byte(tc.b), 0o644); err != nil {
				t.Fatal(err)
			}
			if c, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			before := c.Stats()
			got := d.new()
			if c.Get("k", got) {
				t.Fatalf("%s: expected a miss", name)
			}
			if !reflect.ValueOf(got).Elem().IsZero() {
				t.Fatalf("%s: a miss wrote %+v into the destination", name, reflect.ValueOf(got).Elem())
			}
			after := c.Stats()
			if after.Misses != before.Misses+1 || after.Hits != before.Hits {
				t.Fatalf("%s: miss not counted (stats %+v -> %+v)", name, before, after)
			}
			if after.Corrupt != before.Corrupt+1 {
				t.Fatalf("%s: corrupt entry not counted (stats %+v)", name, after)
			}
			// The slot still works: a rewrite serves hits again.
			c.Put("k", payload{Cycles: 9})
			if got := d.new(); !c.Get("k", got) || !d.hit(got) {
				t.Fatalf("%s: cache slot did not recover after rewrite", name)
			}
		}
	}
	// An absent entry is a plain miss, not a corrupt one.
	before := c.Stats()
	var got payload
	if c.Get("absent", &got) {
		t.Fatal("unexpected hit")
	}
	after := c.Stats()
	if after.Corrupt != before.Corrupt || after.Misses != before.Misses+1 {
		t.Fatalf("absent entry miscounted: %+v -> %+v", before, after)
	}
}

// TestCachePathStable pins the file an entry lives in: the SHA-256 of
// "v<Version>|<key>", fanned out by its first two hex digits. Caches
// filled by earlier builds stay warm only while this naming holds.
func TestCachePathStable(t *testing.T) {
	c := &Cache{dir: "root"}
	if Version == 2 {
		want := filepath.Join("root", "40", "55bab959ac7d69fe332e7f2c96a734bcf5bdbc6dc1096b74ed29eba3a95fbf.json")
		if got := c.path("k"); got != want {
			t.Errorf("path(%q) = %s, want %s", "k", got, want)
		}
	}
	for _, key := range []string{"", "k", "measure|kernel=matmul(64x64)|seed=1|cfg=pulp4|model=ab12", "ü|\x00"} {
		h := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("v%d|%s", Version, key))))
		if got, want := c.path(key), filepath.Join("root", h[:2], h[2:]+".json"); got != want {
			t.Errorf("path(%q) = %s, want %s", key, got, want)
		}
	}
}
