package kernels

import (
	"sync"
	"testing"

	"hetsim/internal/cpu"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
)

// TestCompiledSharedOnce pins the per-process memo contract: eight
// goroutines racing for the same (image, target) pair trigger exactly one
// block compilation and all receive the same *cpu.Compiled, while a
// different target of the same image compiles separately. This is the
// property that keeps a -j8 sweep from re-predecoding every job.
func TestCompiledSharedOnce(t *testing.T) {
	k := MatMulChar(16)
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	before := cpu.Compiles.Load()
	comps := make([]*cpu.Compiled, 8)
	var wg sync.WaitGroup
	for i := range comps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Compiled(prog, isa.PULPFull)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			comps[i] = c
		}(i)
	}
	wg.Wait()
	if got := cpu.Compiles.Load() - before; got != 1 {
		t.Errorf("8 concurrent Compiled calls ran %d compilations, want 1", got)
	}
	for i, c := range comps {
		if c == nil || c != comps[0] {
			t.Fatalf("goroutine %d got a different Compiled pointer", i)
		}
	}

	// A different target spec must not alias: timing/feature ablations
	// change predecode metadata and block spans.
	other, err := Compiled(prog, isa.CortexM4)
	if err != nil {
		t.Fatalf("m4 compile: %v", err)
	}
	if other == comps[0] {
		t.Errorf("PULPFull and CortexM4 compilations aliased one cache entry")
	}
	if got := cpu.Compiles.Load() - before; got != 2 {
		t.Errorf("second target ran %d total compilations, want 2", got)
	}
}
