// Package kernels implements the ten benchmark kernels of Table I —
// matmul (char/short/16-bit fixed), strassen, svm (linear/poly/RBF), cnn,
// cnn (approx) and hog — as target-aware code generators plus bit-exact Go
// golden models and deterministic input generators.
//
// Every kernel is written once against the feature-querying emitters of
// internal/devrt and this package; building it for a different isa.Target
// produces a different instruction stream (SIMD dot products vs scalar
// loops, hardware loops vs compare-and-branch with unrolling, 1-cycle
// 64-bit MAC vs the software decomposition). This mirrors how the paper
// compiles one portable-C source per benchmark for each platform, and it
// is what makes the architectural-speedup comparison of Fig. 4 meaningful.
package kernels

import (
	"fmt"
	"slices"
	"sync"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
)

// Instance is a fully parameterized benchmark kernel.
type Instance struct {
	// Name as it appears in Table I, e.g. "matmul (short)".
	Name string
	// Field is the application domain column of Table I.
	Field string
	// Desc is the description column of Table I.
	Desc string
	// ParamDesc summarizes the concrete sizes, e.g. "64x64".
	ParamDesc string

	// MaxThreads caps the useful team size (all paper kernels scale to 4).
	MaxThreads int

	build    func(t isa.Target, mode devrt.Mode) (*asm.Program, error)
	genInput func(seed uint64) []byte
	golden   func(in []byte) []byte
	inLen    uint32
	outLen   uint32
	args     [4]uint32
}

// buildCache memoizes emitted programs per process. Code generation is a
// pure function of the instance parameters, the target and the runtime
// mode (TestProgramHashStable pins this down), and built programs are
// never mutated — every consumer treats them as read-only images — so
// identical requests can share one *asm.Program. Every sweep job of one
// (kernel, target, mode) shares its program this way, and the compile
// memo (Compiled) keys on that one pointer.
var buildCache sync.Map // buildKey string -> *asm.Program

// buildKey pins down everything code generation depends on: the kernel's
// constructor parameters (name + ParamDesc encode them; args/outLen guard
// against aliases) and the full target spec, not just its name, so an
// ablated variant can never alias the full configuration.
func (k *Instance) buildKey(t isa.Target, mode devrt.Mode) string {
	return fmt.Sprintf("%s|%s|%x|%d|%s%+v%+v|%d",
		k.Name, k.ParamDesc, k.args, k.outLen, t.Name, t.Feat, t.Time, mode)
}

// Build generates and links the kernel binary for a target and runtime
// mode, and verifies that no unsupported instruction leaked through.
// Repeated builds of the same (kernel, target, mode) return one shared,
// read-only program.
func (k *Instance) Build(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
	key := k.buildKey(t, mode)
	if p, ok := buildCache.Load(key); ok {
		return p.(*asm.Program), nil
	}
	p, err := k.build(t, mode)
	if err != nil {
		return nil, fmt.Errorf("kernels: building %s for %s: %w", k.Name, t.Name, err)
	}
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	actual, _ := buildCache.LoadOrStore(key, p)
	return actual.(*asm.Program), nil
}

// Input generates the deterministic input buffer for the given seed.
func (k *Instance) Input(seed uint64) []byte {
	inputs.Add(1)
	return k.genInput(seed)
}

// InLen is the input buffer size in bytes: len(Input(seed)) for every
// seed, known without generating one.
func (k *Instance) InLen() uint32 { return k.inLen }

// Golden computes the expected output for an input buffer, using exactly
// the device's integer arithmetic.
func (k *Instance) Golden(in []byte) []byte { return k.golden(in) }

// OutLen is the output buffer size in bytes.
func (k *Instance) OutLen() uint32 { return k.outLen }

// Args returns the kernel's scalar descriptor arguments.
func (k *Instance) Args() [4]uint32 { return k.args }

// xorshift64 is the deterministic generator for benchmark inputs; it is
// spelled out here (rather than math/rand) so inputs are stable across Go
// releases — golden outputs in EXPERIMENTS.md depend on them.
type xorshift64 uint64

func newRNG(seed uint64) *xorshift64 {
	x := xorshift64(seed*2685821657736338717 + 1442695040888963407)
	return &x
}

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// i8 returns a signed sample in [-bound, bound].
func (x *xorshift64) i8(bound int32) int8 {
	return int8(x.i32(bound))
}

// i16 returns a signed sample in [-bound, bound].
func (x *xorshift64) i16(bound int32) int16 {
	return int16(x.i32(bound))
}

// i32 returns a signed sample in [-bound, bound].
func (x *xorshift64) i32(bound int32) int32 {
	if bound == 0 {
		return 0
	}
	span := uint64(2*bound + 1)
	return int32(x.next()%span) - bound
}

// The two Table I registries, built once per process on first use: the
// instances are read-only after construction (their models, LUTs and
// parameters are captured by closures nothing writes), so every caller —
// a local campaign, each /v1/batch spec, the facade — can share them.
// Building lazily keeps process start-up (hetsimd, hetexp -scrub) free of
// the weight and table generation.
var (
	paperSuite = sync.OnceValue(func() []*Instance {
		return []*Instance{
			MatMulChar(64),
			MatMulShort(64),
			MatMulFixed(64),
			Strassen(64),
			SVM(SVMLinear, 64, 40, 54),
			SVM(SVMPoly, 64, 40, 54),
			SVM(SVMRBF, 64, 40, 54),
			CNN(false),
			CNN(true),
			HOG(128, 128),
		}
	})
	smallSuite = sync.OnceValue(func() []*Instance {
		return []*Instance{
			MatMulChar(16),
			MatMulShort(16),
			MatMulFixed(16),
			Strassen(16),
			SVM(SVMLinear, 16, 8, 6),
			SVM(SVMPoly, 16, 8, 6),
			SVM(SVMRBF, 16, 8, 6),
			CNNSized(false, 16, 2, 4),
			CNNSized(true, 16, 2, 4),
			HOG(32, 32),
		}
	})
)

// PaperSuite returns the ten kernels of Table I at the paper's sizes: a
// fresh slice of the process-wide, read-only instances.
func PaperSuite() []*Instance { return slices.Clone(paperSuite()) }

// SmallSuite returns reduced-size instances of every kernel for fast
// functional testing: a fresh slice of the process-wide, read-only
// instances.
func SmallSuite() []*Instance { return slices.Clone(smallSuite()) }

// ByName finds a kernel in the paper suite by its Table I name.
func ByName(name string) (*Instance, error) {
	for _, k := range paperSuite() {
		if k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}
