package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/fixed"
	"hetsim/internal/isa"
)

// Support Vector Machine classification, a C port of the libsvm decision
// function on Q15 fixed-point data (Table I rows 5-7). For each test
// vector z the kernel evaluates
//
//	score(z) = bias + sum_i alpha[i] * K(sv_i, z)
//
// with K one of:
//
//	linear: K = (sv.z)            (Q15 dot, normalized by the dimension)
//	poly:   K = (gamma*lin + c)^3 (Q15 powers)
//	RBF:    K = exp(-gamma*||sv-z||^2) via the piecewise-linear LUT
//
// The support vectors, alphas and the exp table live in the binary's data
// section (they are the trained model), the test vectors are the input
// buffer, and the scores are the output. All arithmetic is 32-bit with
// per-product Q15 shifts, so none of the OR10N MAC/SIMD shortcuts apply —
// which is exactly the fixed-point regime of Fig. 4.

// SVMKind selects the kernel function.
type SVMKind int

const (
	SVMLinear SVMKind = iota
	SVMPoly
	SVMRBF
)

func (k SVMKind) String() string {
	switch k {
	case SVMLinear:
		return "linear"
	case SVMPoly:
		return "poly"
	case SVMRBF:
		return "RBF"
	}
	return "?"
}

const (
	svmGamma = 16384 // 0.5 in Q15
	svmCoef0 = 8192  // 0.25 in Q15
	svmBias  = 3277  // ~0.1 in Q15
	svmQ     = 15
	svmLUTQ  = 14 // output format of the exp table
)

type svmParams struct {
	kind SVMKind
	d    int32 // feature dimension (multiple of 4)
	nsv  int32 // support vectors
	nt   int32 // test vectors
	logD int32
}

func svmLUT() *fixed.LUT {
	return fixed.NewExpNegLUT(fixed.Q15, svmLUTQ, 8.0, 6)
}

// SVM builds an SVM kernel instance.
func SVM(kind SVMKind, d, nsv, nt int) *Instance {
	p := svmParams{kind: kind, d: int32(d), nsv: int32(nsv), nt: int32(nt)}
	if d%4 != 0 || d <= 0 {
		panic("kernels: svm dimension must be a positive multiple of 4")
	}
	for v := int32(1); v < p.d; v <<= 1 {
		p.logD++
	}
	model := svmModel(p)
	return &Instance{
		Name:       fmt.Sprintf("svm (%s)", kind),
		Field:      "learning / vision",
		Desc:       fmt.Sprintf("Support Vector Machine classifier (%s kernel)", kind),
		ParamDesc:  fmt.Sprintf("D=%d NSV=%d NT=%d", d, nsv, nt),
		MaxThreads: 4,
		inLen:      uint32(2 * p.nt * p.d),
		outLen:     uint32(4 * p.nt),
		args:       [4]uint32{uint32(d), uint32(nsv), uint32(nt)},
		build: func(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildSVM(t, mode, p, model)
		},
		genInput: func(seed uint64) []byte { return svmInput(p, seed) },
		golden:   func(in []byte) []byte { return svmGolden(p, model, in) },
	}
}

type svmModelData struct {
	sv    []int16 // nsv x d, Q15
	alpha []int16 // nsv, Q15
	lut   *fixed.LUT
}

// svmModel generates the deterministic "trained" model embedded in the
// binary (random support vectors with alternating-sign alphas — the
// operation mix, not the decision quality, is what the benchmark measures).
func svmModel(p svmParams) svmModelData {
	rng := newRNG(uint64(p.kind)<<32 ^ 0x53564d) // "SVM"
	m := svmModelData{
		sv:    make([]int16, p.nsv*p.d),
		alpha: make([]int16, p.nsv),
		lut:   svmLUT(),
	}
	for i := range m.sv {
		m.sv[i] = rng.i16(16000)
	}
	for i := range m.alpha {
		a := rng.i16(30000)
		if i%2 == 0 && a < 0 {
			a = -a
		}
		m.alpha[i] = a
	}
	return m
}

func svmInput(p svmParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x7376) // "sv"
	out := make([]byte, 2*p.nt*p.d)
	for i := int32(0); i < p.nt*p.d; i++ {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(16000)))
	}
	return out
}

// svmKernelEval is the golden K(sv_i, z) evaluation; the device code is an
// instruction-level transcription of the same arithmetic.
func svmKernelEval(p svmParams, m svmModelData, sv []int16, z []int16) int32 {
	switch p.kind {
	case SVMLinear, SVMPoly:
		var dot int32
		for k := range sv {
			dot += int32(sv[k]) * int32(z[k]) >> svmQ
		}
		lin := dot >> uint(p.logD)
		if p.kind == SVMLinear {
			return lin
		}
		t := (svmGamma*lin)>>svmQ + svmCoef0
		t2 := (t * t) >> svmQ
		return (t2 * t) >> svmQ
	case SVMRBF:
		var d2 int32
		for k := range sv {
			df := int32(sv[k]) - int32(z[k])
			d2 += (df * df) >> svmQ
		}
		arg := (svmGamma * d2) >> svmQ
		return m.lut.Eval(arg)
	}
	return 0
}

func svmGolden(p svmParams, m svmModelData, in []byte) []byte {
	out := make([]byte, 4*p.nt)
	z := make([]int16, p.d)
	for t := int32(0); t < p.nt; t++ {
		for k := int32(0); k < p.d; k++ {
			z[k] = int16(binary.LittleEndian.Uint16(in[2*(t*p.d+k):]))
		}
		score := int32(svmBias)
		for i := int32(0); i < p.nsv; i++ {
			kv := svmKernelEval(p, m, m.sv[i*p.d:(i+1)*p.d], z)
			shift := uint(svmQ)
			if p.kind == SVMRBF {
				shift = svmLUTQ
			}
			score += (int32(m.alpha[i]) * kv) >> shift
		}
		binary.LittleEndian.PutUint32(out[4*t:], uint32(score))
	}
	return out
}

func buildSVM(t isa.Target, mode devrt.Mode, p svmParams, m svmModelData) (*asm.Program, error) {
	b := asm.NewBuilder("svm_" + p.kind.String())
	devrt.EmitCRT0(b, mode)

	b.Halves("svm_sv", m.sv)
	b.Halves("svm_alpha", m.alpha)
	if p.kind == SVMRBF {
		b.Data("svm_explut", m.lut.Bytes(), 4)
	}

	b.Label("main")
	devrt.EmitPrologue(b)
	devrt.EmitParallel(b, "svm_body")
	devrt.EmitEpilogue(b)

	// Parallel body: test vectors [lo,hi) for this core.
	b.Label("svm_body")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1, out: isa.A2})
	devrt.EmitChunk(b, p.nt, isa.S2 /*lo*/, isa.T4 /*hi*/)
	b.SUB(isa.S2, isa.T4, isa.S2) // count
	b.SUB(isa.T5, isa.T4, isa.S2) // lo
	// S0 = z ptr, S1 = out ptr
	b.LI(isa.T6, 2*p.d)
	b.MUL(isa.T7, isa.T5, isa.T6)
	b.ADD(isa.S0, isa.A1, isa.T7)
	b.SLLI(isa.T7, isa.T5, 2)
	b.ADD(isa.S1, isa.A2, isa.T7)
	b.LA(isa.S3, "svm_sv")
	b.LA(isa.S4, "svm_alpha")
	if p.kind == SVMRBF {
		b.LA(isa.S7, "svm_explut")
	}

	noWork := b.Uniq("svm_none")
	b.SFI(isa.SFLESI, isa.S2, 0)
	b.BF(noWork)

	tvLoop := b.Uniq("svm_tv")
	b.Label(tvLoop)
	b.LI(isa.S5, svmBias) // score
	b.MOV(isa.A3, isa.S3) // sv ptr walks all SVs
	b.MOV(isa.A5, isa.S4) // alpha ptr
	b.LI(isa.S6, p.nsv)   // sv counter
	devrt.EmitLoop(b, t, isa.S6, 1, 1, func(int) {
		b.MOV(isa.A4, isa.S0) // z ptr resets per SV
		b.LI(isa.T6, 0)
		r := dotRegs{acc: isa.T6, aPtr: isa.A3, bPtr: isa.A4, cnt: isa.T7, x: isa.T8, y: isa.T9}
		shift := int32(svmQ)
		switch p.kind {
		case SVMLinear, SVMPoly:
			emitDotFixed(b, t, r, p.d, svmQ, 0)
			b.SRAI(isa.T6, isa.T6, p.logD)
			if p.kind == SVMPoly {
				// t = (gamma*lin)>>15 + c; K = ((t*t)>>15 * t)>>15
				b.LI(isa.T7, svmGamma)
				b.MUL(isa.T6, isa.T6, isa.T7)
				b.SRAI(isa.T6, isa.T6, svmQ)
				b.LI(isa.T7, svmCoef0)
				b.ADD(isa.T6, isa.T6, isa.T7)
				b.MUL(isa.T7, isa.T6, isa.T6)
				b.SRAI(isa.T7, isa.T7, svmQ)
				b.MUL(isa.T6, isa.T7, isa.T6)
				b.SRAI(isa.T6, isa.T6, svmQ)
			}
		case SVMRBF:
			emitSqDiffFixed(b, t, r, p.d, svmQ, 0)
			b.LI(isa.T7, svmGamma)
			b.MUL(isa.T6, isa.T6, isa.T7)
			b.SRAI(isa.T6, isa.T6, svmQ)
			emitLUTEval(b, t, isa.T6, isa.S7, isa.T7, isa.T8, isa.T9,
				m.lut.Span, int32(m.lut.LogStep))
			shift = svmLUTQ
		}
		// score += (alpha * K) >> shift
		emitLoadInc(b, t, isa.LHS, isa.T7, isa.A5, 2)
		b.MUL(isa.T6, isa.T6, isa.T7)
		b.SRAI(isa.T6, isa.T6, shift)
		b.ADD(isa.S5, isa.S5, isa.T6)
	})
	emitStoreInc(b, t, isa.SW, isa.S1, isa.S5, 4)
	b.LI(isa.T6, 2*p.d)
	b.ADD(isa.S0, isa.S0, isa.T6)
	b.ADDI(isa.S2, isa.S2, -1)
	b.SFI(isa.SFGTSI, isa.S2, 0)
	b.BF(tvLoop)
	b.Label(noWork)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)

	return b.Build(asm.Layout{})
}
