package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
)

// FIR is an extension kernel beyond the paper's Table I suite, covering
// the compressed-sensing / biosignal filtering workloads the paper's
// introduction motivates: a T-tap Q15 FIR filter over an N-sample window,
//
//	y[i] = sum_k (h[k] * x[i+k]) >> 15
//
// Like the other fixed-point kernels it needs a per-product shift, so it
// exercises the same "no multiply-shift-add" regime as svm/cnn — and it
// demonstrates how downstream users add their own kernels: a code
// generator over the shared emitters, a golden model, an input generator.

type firParams struct {
	n    int32 // output samples
	taps int32
}

// FIR returns a Q15 FIR filter instance (n outputs, t taps).
func FIR(n, t int) *Instance {
	p := firParams{n: int32(n), taps: int32(t)}
	if t%4 != 0 || t <= 0 || n <= 0 {
		panic(fmt.Sprintf("kernels: fir taps %d must be a positive multiple of 4", t))
	}
	coeffs := firCoeffs(p)
	return &Instance{
		Name:       "fir",
		Field:      "signal processing",
		Desc:       fmt.Sprintf("%d-tap Q15 FIR filter (extension kernel)", t),
		ParamDesc:  fmt.Sprintf("N=%d T=%d", n, t),
		MaxThreads: 4,
		inLen:      uint32(2 * (p.n + p.taps)),
		outLen:     uint32(2 * p.n),
		args:       [4]uint32{uint32(n), uint32(t)},
		build: func(tgt isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildFIR(tgt, mode, p, coeffs)
		},
		genInput: func(seed uint64) []byte { return firInput(p, seed) },
		golden:   func(in []byte) []byte { return firGolden(p, coeffs, in) },
	}
}

// firCoeffs generates a deterministic low-pass-ish tap set bounded so the
// Q15 accumulation cannot overflow 32 bits.
func firCoeffs(p firParams) []int16 {
	rng := newRNG(0x666972) // "fir"
	h := make([]int16, p.taps)
	for i := range h {
		h[i] = rng.i16(4000)
	}
	return h
}

func firInput(p firParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x736967) // "sig"
	total := p.n + p.taps
	out := make([]byte, 2*total)
	for i := int32(0); i < total; i++ {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(30000)))
	}
	return out
}

func firGolden(p firParams, h []int16, in []byte) []byte {
	x := make([]int32, p.n+p.taps)
	for i := range x {
		x[i] = int32(int16(binary.LittleEndian.Uint16(in[2*i:])))
	}
	out := make([]byte, 2*p.n)
	for i := int32(0); i < p.n; i++ {
		var acc int32
		for k := int32(0); k < p.taps; k++ {
			acc += (int32(h[k]) * x[i+k]) >> 15
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(acc)))
	}
	return out
}

func buildFIR(t isa.Target, mode devrt.Mode, p firParams, h []int16) (*asm.Program, error) {
	b := asm.NewBuilder("fir")
	devrt.EmitCRT0(b, mode)
	b.Halves("fir_h", h)

	b.Label("main")
	devrt.EmitPrologue(b)
	devrt.EmitParallel(b, "fir_body")
	devrt.EmitEpilogue(b)

	// Parallel body: output samples [lo,hi) for this core.
	b.Label("fir_body")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1, out: isa.A2})
	devrt.EmitChunk(b, p.n, isa.S2 /*lo*/, isa.T4 /*hi*/)
	b.SUB(isa.S2, isa.T4, isa.S2) // count
	b.SUB(isa.T5, isa.T4, isa.S2) // lo
	// S0 = x + lo*2 (window start advances one sample per output)
	b.SLLI(isa.T6, isa.T5, 1)
	b.ADD(isa.S0, isa.A1, isa.T6)
	// S1 = y + lo*2
	b.ADD(isa.S1, isa.A2, isa.T6)
	b.LA(isa.S3, "fir_h")
	noWork := b.Uniq("fir_none")
	b.SFI(isa.SFLESI, isa.S2, 0)
	b.BF(noWork)
	loop := b.Uniq("fir_out")
	b.Label(loop)
	b.MOV(isa.A3, isa.S3) // taps
	b.MOV(isa.A4, isa.S0) // window
	b.LI(isa.T6, 0)
	emitDotFixed(b, t, dotRegs{acc: isa.T6, aPtr: isa.A3, bPtr: isa.A4,
		cnt: isa.T7, x: isa.T8, y: isa.T9}, p.taps, 15, 0)
	emitStoreInc(b, t, isa.SH, isa.S1, isa.T6, 2)
	b.ADDI(isa.S0, isa.S0, 2)
	b.ADDI(isa.S2, isa.S2, -1)
	b.SFI(isa.SFGTSI, isa.S2, 0)
	b.BF(loop)
	b.Label(noWork)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3)

	return b.Build(asm.Layout{})
}

// ExtraSuite returns the extension kernels that go beyond Table I.
func ExtraSuite() []*Instance {
	return []*Instance{FIR(2048, 32), DWT(2048, 4)}
}
