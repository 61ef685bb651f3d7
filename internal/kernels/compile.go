package kernels

import (
	"sync"
	"sync/atomic"

	"hetsim/internal/asm"
	"hetsim/internal/cpu"
	"hetsim/internal/isa"
)

// compileCache memoizes compiled programs per process, keyed by the built
// program plus the full target spec (timing and feature ablations change
// predecode metadata, so they must never alias).
// buildCache hands out one *asm.Program per build key, so the pointer
// stands for the image without hashing it. Compiled images are immutable —
// cores only ever read them — so one *cpu.Compiled is shared across all
// clusters, sweep workers and repeat runs of the same program. The cache
// lives and dies with the process, so a change to the table format can
// never meet an entry of the old one.
var compileCache sync.Map // compileKey -> *compileEntry

// compileKey is a compileCache key.
type compileKey struct {
	prog *asm.Program
	tgt  isa.Target
}

// compileEntry is the cache slot: LoadOrStore claims the key, the once
// runs the compilation single-flight, so under a parallel sweep each
// distinct image compiles exactly once (TestCompiledSharedOnce pins the
// cpu.Compiles counter on this).
type compileEntry struct {
	once sync.Once
	comp *cpu.Compiled
}

// compiledHits / compiledMisses count memo outcomes: a miss claims a fresh
// cache slot (and pays a compilation), a hit reuses one another caller
// already claimed. Surfaced through CompileStats for hetsimd /v1/stats and
// hetexp's final stats line.
var (
	compiledHits   atomic.Uint64
	compiledMisses atomic.Uint64
)

// inputs counts Input calls: the kernel inputs this process generated.
var inputs atomic.Uint64

// ArtifactStats reports the process-wide counts of kernel inputs
// generated (Input) and program images serialized (asm.Program.Image). A
// warm campaign generates only the inputs of the kernels it composes
// offloads for and serializes nothing: composition sizes the binary from
// the program (asm.Program.Size), and only a simulated offload encodes.
func ArtifactStats() (inputsGenerated, imagesEncoded uint64) {
	return inputs.Load(), asm.Encodes.Load()
}

// CompileStats reports the process-wide compile-tier counters: program
// images compiled and the Compiled memo hit/miss split. superCompiles is
// always 0 — one fused executor serves solo runs and optimistic windows
// alike and forms no superblocks (DESIGN.md §12–13) — and stays so the
// four-value signature its callers read keeps its shape.
func CompileStats() (blockCompiles, superCompiles, memoHits, memoMisses uint64) {
	return cpu.Compiles.Load(), 0, compiledHits.Load(), compiledMisses.Load()
}

// Compiled returns the shared predecoded text of a program for a target,
// compiling on first use.
func Compiled(p *asm.Program, t isa.Target) (*cpu.Compiled, error) {
	e, loaded := compileCache.LoadOrStore(compileKey{p, t}, &compileEntry{})
	if loaded {
		compiledHits.Add(1)
	} else {
		compiledMisses.Add(1)
	}
	entry := e.(*compileEntry)
	entry.once.Do(func() { entry.comp = cpu.Compile(p.Text, t) })
	return entry.comp, nil
}
