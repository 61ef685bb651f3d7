package paper

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"hetsim/internal/sweep"
)

// TestRegistryBuildsOnce counts the work a warm /v1/batch spec costs
// instead of timing it: the registry hands out the same process-wide
// instances on every call, and resolving a spec into its job allocates
// only the key and the closure, never a kernel's weights, tables or input
// streams.
func TestRegistryBuildsOnce(t *testing.T) {
	a, b := Registry(false), Registry(false)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("registry sizes %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Registry(false)[%d] rebuilt: %p then %p", i, a[i], b[i])
		}
	}
	a[0] = nil // each call hands out its own slice
	if Registry(false)[0] == nil {
		t.Fatal("a caller's write to its registry slice reached the shared one")
	}

	// One spec's job is three allocations: the key, the run state and
	// the run's func value. The kernel is a map lookup and a parsed
	// request's spec is not resolved again.
	spec := JobSpec{Kernel: "svm (RBF)", Seed: 1, Config: "pulp4"}
	req, err := ParseBatchRequest([]byte(`{"specs":[{"kernel":"svm (RBF)","seed":1,"config":"pulp4"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (sweep.Job[json.RawMessage], error){
		"BuildSpecJob":     func() (sweep.Job[json.RawMessage], error) { return BuildSpecJob(spec) },
		"BatchRequest.Job": func() (sweep.Job[json.RawMessage], error) { return req.Job(0) },
	} {
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := build(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Fatalf("%s(%+v) makes %.0f allocations, want ≤ 3: it builds more than the key and the run", name, spec, allocs)
		}
	}
}

// TestSharedRegistryConcurrentRuns runs one small-suite spec from several
// goroutines at once, each through its own BuildSpecJob, so every run
// reads the same shared instance (its model, LUT and input generator).
// All must return identical bytes; under -race (make serve-drill) it also
// proves the instances are read-only.
func TestSharedRegistryConcurrentRuns(t *testing.T) {
	spec := JobSpec{Kernel: "svm (RBF)", Small: true, Seed: 3, Config: "pulp4", Observe: true}
	const n = 4
	out := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := BuildSpecJob(spec)
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = job.Run()
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(out[i], out[0]) {
			t.Fatalf("run %d returned %s, run 0 %s", i, out[i], out[0])
		}
	}
}
