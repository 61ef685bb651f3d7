package paper

import (
	"bytes"
	"sync"
	"testing"
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

	spec := JobSpec{Kernel: "svm (RBF)", Seed: 1, Config: "pulp4"}
	if _, err := BuildSpecJob(spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildSpecJob(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("BuildSpecJob(%+v) makes %.0f allocations, want ≤ 40: it builds more than the key", spec, allocs)
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
