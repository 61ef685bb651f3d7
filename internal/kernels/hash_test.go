package kernels

import (
	"testing"

	"hetsim/internal/devrt"
	"hetsim/internal/isa"
)

// TestProgramHashStable checks that repeated builds of the same kernel
// hash identically (the property run-cache keys rely on) and that
// different targets or runtime modes produce different hashes.
func TestProgramHashStable(t *testing.T) {
	k := MatMulChar(16)
	hash := func(tgt isa.Target, mode devrt.Mode) string {
		t.Helper()
		p, err := k.Build(tgt, mode)
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := hash(isa.PULPFull, devrt.Accel)
	if h2 := hash(isa.PULPFull, devrt.Accel); h1 != h2 {
		t.Fatalf("hash not stable across builds: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("want a sha256 hex digest, got %q", h1)
	}

	if hash(isa.CortexM4, devrt.Host) == h1 {
		t.Fatal("different target/mode must change the program hash")
	}

	ablated := isa.PULPFull
	ablated.Name += "-SIMD"
	ablated.Feat.SIMD = false
	if hash(ablated, devrt.Accel) == h1 {
		t.Fatal("ablating a used feature must change the program hash")
	}
}
