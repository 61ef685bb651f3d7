package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCacheWriteFaultStages injects a failure into every crash window of
// the commit protocol in turn and proves the invariant the crash drill
// also checks from outside: each failure mode is a countable WriteFail,
// and a subsequent Get is either a clean miss or the correct value —
// never a corrupt hit.
func TestCacheWriteFaultStages(t *testing.T) {
	for stage := FaultTempWrite; stage < writeStages; stage++ {
		t.Run(stage.String(), func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			faults := &WriteFaults{}
			faults.FailFirst[stage] = 1
			c.Faults = faults

			want := payload{Cycles: 77, Eff: 0.25}
			err = c.Put("k", want)
			if !errors.Is(err, ErrInjectedWriteFault) {
				t.Fatalf("Put error = %v, want injected fault", err)
			}
			if st := c.Stats(); st.WriteFails != 1 || st.Writes != 0 {
				t.Fatalf("stats after failed Put = %+v", st)
			}
			if faults.Injected()[stage] != 1 {
				t.Fatalf("stage %v did not record its injection", stage)
			}

			var got payload
			hit := c.Get("k", &got)
			switch stage {
			case FaultDirSync:
				// The entry committed; only its durability is unknown. A
				// hit here must be the correct value.
				if !hit || !reflect.DeepEqual(got, want) {
					t.Fatalf("post-dir-fsync-failure Get = %v %+v, want correct hit", hit, got)
				}
			default:
				if hit {
					t.Fatalf("stage %v: failed write became a hit: %+v", stage, got)
				}
			}
			if st := c.Stats(); st.Corrupt != 0 {
				t.Fatalf("stage %v: failed write counted as corrupt: %+v", stage, c.Stats())
			}

			// No stage may strand a temp file when it fails via the error
			// path (SIGKILL can — that is Scrub's job, not write's).
			if stage != FaultDirSync {
				tmps := 0
				filepath.WalkDir(c.Dir(), func(p string, d os.DirEntry, err error) error {
					if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
						tmps++
					}
					return nil
				})
				if tmps != 0 {
					t.Fatalf("stage %v stranded %d temp files", stage, tmps)
				}
			}

			// The injected failure was transient by construction: a retry
			// commits, and the entry round-trips.
			if err := c.Put("k", want); err != nil {
				t.Fatalf("retry Put: %v", err)
			}
			got = payload{}
			if !c.Get("k", &got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("post-retry Get = %+v", got)
			}
		})
	}
}

// TestCacheWriteFaultRate drives a rate-based fault stream through many
// writes: every key must end up either absent or correct, and the
// injected/WriteFails accounting must agree.
func TestCacheWriteFaultRate(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faults := &WriteFaults{Seed: 0xC0FFEE}
	for s := FaultTempWrite; s < writeStages; s++ {
		faults.Rates[s] = 0.2
	}
	c.Faults = faults

	const n = 200
	fails := 0
	for i := 0; i < n; i++ {
		if c.Put(fmt.Sprintf("k-%d", i), payload{Cycles: uint64(i)}) != nil {
			fails++
		}
	}
	if fails == 0 || fails == n {
		t.Fatalf("rate injection degenerate: %d/%d failures", fails, n)
	}
	st := c.Stats()
	if int(st.WriteFails) != fails || int(st.Writes) != n-fails {
		t.Fatalf("accounting: %d observed failures vs %+v", fails, st)
	}
	var injectedTotal uint64
	for _, v := range faults.Injected() {
		injectedTotal += v
	}
	// Dir-fsync injections surface as Put errors but leave a committed
	// entry, so injected >= fails is the only exact relation; every Put
	// error here must have been an injection (the disk itself is healthy).
	if injectedTotal < uint64(fails) {
		t.Fatalf("%d injections < %d Put failures", injectedTotal, fails)
	}
	faults.Rates = [4]float64{} // disarm before verification reads/writes
	for i := 0; i < n; i++ {
		var got payload
		if c.Get(fmt.Sprintf("k-%d", i), &got) && got.Cycles != uint64(i) {
			t.Fatalf("k-%d: hit with wrong value %+v", i, got)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatalf("fault stream produced corrupt entries: %+v", st)
	}
}

// TestCacheWriteFailFirstRetries: FailFirst models a transiently failing
// disk — the service layer's retry budget must be able to ride it out.
func TestCacheWriteFailFirstRetries(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faults := &WriteFaults{}
	faults.FailFirst[FaultRename] = 2
	c.Faults = faults
	want := payload{Cycles: 9}
	var lastErr error
	attempts := 0
	for ; attempts < 5; attempts++ {
		if lastErr = c.Put("k", want); lastErr == nil {
			break
		}
	}
	if lastErr != nil || attempts != 2 {
		t.Fatalf("succeeded after %d attempts (err %v), want exactly the 2 injected failures", attempts, lastErr)
	}
	var got payload
	if !c.Get("k", &got) || got.Cycles != 9 {
		t.Fatalf("Get after retries = %+v", got)
	}
}

// TestCacheWriteFailFirstPerKey: FailFirst counts per key — each of two
// keys fails exactly its first N writes, whatever the interleaving — and
// two injectors with the same seed make the same rate decisions.
func TestCacheWriteFailFirstPerKey(t *testing.T) {
	const n = 3
	f := &WriteFaults{}
	f.FailFirst[FaultTempWrite] = n
	for round := 0; round < n+2; round++ {
		for _, key := range []string{"x", "y"} {
			err := f.fail(FaultTempWrite, key)
			if want := round < n; (err != nil) != want {
				t.Fatalf("key %s attempt %d: err = %v, want failure %v", key, round+1, err, want)
			}
		}
	}
	if got := f.Injected()[FaultTempWrite]; got != 2*n {
		t.Fatalf("injected %d, want %d", got, 2*n)
	}

	a, b := &WriteFaults{Seed: 7}, &WriteFaults{Seed: 7}
	a.Rates[FaultRename], b.Rates[FaultRename] = 0.5, 0.5
	fails := 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k-%d", i%5)
		ea, eb := a.fail(FaultRename, key), b.fail(FaultRename, key)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("decision %d: same seed, different rate stream", i)
		}
		if ea != nil {
			fails++
		}
	}
	if fails == 0 || fails == 64 {
		t.Fatalf("rate 0.5 stream degenerate: %d/64 failures", fails)
	}
}
