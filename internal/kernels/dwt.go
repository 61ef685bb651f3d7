package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
)

// DWT is the second extension kernel: a multi-level Haar discrete wavelet
// transform over Q15 samples, the workhorse of the compressed-sensing
// acquisition schemes the paper's introduction cites for biomedical nodes.
// Per level, N samples become N/2 approximation and N/2 detail
// coefficients:
//
//	a[i] = (x[2i] + x[2i+1]) >> 1
//	d[i] = (x[2i] - x[2i+1]) >> 1
//
// and the transform recurses on the approximation half. The butterflies
// are add/sub/shift only — no multiplies — so the kernel isolates the
// load/store and loop machinery of the targets (post-increment streaming
// and hardware loops) from the MAC story the other kernels tell.
//
// Parallelization: within a level, output indices are chunked across the
// team; levels are separated by implicit region barriers.

type dwtParams struct {
	n      int32 // input samples (power of two)
	levels int32
}

// DWT returns a Haar wavelet transform instance over n Q15 samples.
func DWT(n, levels int) *Instance {
	p := dwtParams{n: int32(n), levels: int32(levels)}
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("kernels: dwt size %d must be a power of two", n))
	}
	if levels < 1 || n>>uint(levels) < 4 {
		panic(fmt.Sprintf("kernels: dwt levels %d too deep for %d samples", levels, n))
	}
	return &Instance{
		Name:       "dwt",
		Field:      "signal processing",
		Desc:       fmt.Sprintf("%d-level Haar wavelet transform (extension kernel)", levels),
		ParamDesc:  fmt.Sprintf("N=%d L=%d", n, levels),
		MaxThreads: 4,
		inLen:      uint32(2 * p.n),
		outLen:     uint32(2 * p.n),
		args:       [4]uint32{uint32(n), uint32(levels)},
		build: func(tgt isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildDWT(tgt, mode, p)
		},
		genInput: func(seed uint64) []byte { return dwtInput(p, seed) },
		golden:   func(in []byte) []byte { return dwtGolden(p, in) },
	}
}

func dwtInput(p dwtParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x647774) // "dwt"
	out := make([]byte, 2*p.n)
	for i := int32(0); i < p.n; i++ {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(30000)))
	}
	return out
}

func dwtGolden(p dwtParams, in []byte) []byte {
	x := make([]int32, p.n)
	for i := range x {
		x[i] = int32(int16(binary.LittleEndian.Uint16(in[2*i:])))
	}
	tmp := make([]int32, p.n)
	span := p.n
	for l := int32(0); l < p.levels; l++ {
		half := span / 2
		for i := int32(0); i < half; i++ {
			tmp[i] = (x[2*i] + x[2*i+1]) >> 1
			tmp[half+i] = (x[2*i] - x[2*i+1]) >> 1
		}
		copy(x[:span], tmp[:span])
		span = half
	}
	out := make([]byte, 2*p.n)
	for i, v := range x {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(v)))
	}
	return out
}

func buildDWT(t isa.Target, mode devrt.Mode, p dwtParams) (*asm.Program, error) {
	b := asm.NewBuilder("dwt")
	devrt.EmitCRT0(b, mode)
	b.Space("dwt_tmp", uint32(2*p.n), 4)

	b.Label("main")
	devrt.EmitPrologue(b)
	// Each level is one parallel region (barrier-separated); the butterfly
	// body reads the level's span from GlobArg2, which the master updates
	// between regions, and the copy-back body mirrors the golden model.
	span := p.n
	for l := int32(0); l < p.levels; l++ {
		b.LA(isa.T0, "__glob")
		b.LI(isa.T1, span)
		b.SW(isa.T0, isa.T1, devrt.GlobArg2)
		devrt.EmitParallel(b, "dwt_level")
		devrt.EmitParallel(b, "dwt_copy")
		span /= 2
	}
	// The result lives in the input buffer; copy it to the output buffer.
	devrt.EmitParallel(b, "dwt_out")
	devrt.EmitEpilogue(b)

	// Butterfly body: indices [lo,hi) of the current half-span.
	b.Label("dwt_level")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1})
	b.LW(isa.T5, isa.A0, devrt.GlobArg2) // span
	b.SRLI(isa.S3, isa.T5, 1)            // half
	// Chunk [lo,hi) over half, computed from threads at runtime.
	b.MFSPR(isa.T0, isa.SprCoreID)
	b.LW(isa.T1, isa.A0, devrt.GlobThreads)
	b.ADD(isa.T2, isa.S3, isa.T1)
	b.ADDI(isa.T2, isa.T2, -1)
	b.DIVU(isa.T2, isa.T2, isa.T1) // chunk
	b.MUL(isa.S0, isa.T2, isa.T0)  // lo
	b.ADD(isa.S1, isa.S0, isa.T2)  // hi
	clamp := b.Uniq("dwt_clamp")
	b.SF(isa.SFLES, isa.S1, isa.S3)
	b.BF(clamp)
	b.MOV(isa.S1, isa.S3)
	b.Label(clamp)
	done := b.Uniq("dwt_done")
	b.SF(isa.SFGES, isa.S0, isa.S1)
	b.BF(done)
	// Pointers: x at in + 4*lo bytes (pairs), a at tmp + 2*lo, d at tmp + 2*(half+lo).
	b.LA(isa.S2, "dwt_tmp")
	b.SLLI(isa.T3, isa.S0, 2)
	b.ADD(isa.A1, isa.A1, isa.T3) // x pair ptr
	b.SLLI(isa.T3, isa.S0, 1)
	b.ADD(isa.S2, isa.S2, isa.T3) // a ptr
	b.LA(isa.T4, "dwt_tmp")
	b.ADD(isa.T4, isa.T4, isa.T3)
	b.SLLI(isa.T3, isa.S3, 1)
	b.ADD(isa.T4, isa.T4, isa.T3) // d ptr
	b.SUB(isa.S1, isa.S1, isa.S0) // count
	loop := b.Uniq("dwt_bfly")
	b.Label(loop)
	emitLoadInc(b, t, isa.LHS, isa.T5, isa.A1, 2) // x[2i]
	emitLoadInc(b, t, isa.LHS, isa.T6, isa.A1, 2) // x[2i+1]
	b.ADD(isa.T7, isa.T5, isa.T6)
	b.SRAI(isa.T7, isa.T7, 1)
	emitStoreInc(b, t, isa.SH, isa.S2, isa.T7, 2)
	b.SUB(isa.T7, isa.T5, isa.T6)
	b.SRAI(isa.T7, isa.T7, 1)
	emitStoreInc(b, t, isa.SH, isa.T4, isa.T7, 2)
	b.ADDI(isa.S1, isa.S1, -1)
	b.SFI(isa.SFGTSI, isa.S1, 0)
	b.BF(loop)
	b.Label(done)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3)

	// Copy-back body: tmp[lo,hi) -> in[lo,hi) over the full span.
	b.Label("dwt_copy")
	devrt.EmitPrologue(b, isa.S0, isa.S1)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1})
	b.LW(isa.T5, isa.A0, devrt.GlobArg2) // span (elements)
	b.MFSPR(isa.T0, isa.SprCoreID)
	b.LW(isa.T1, isa.A0, devrt.GlobThreads)
	b.ADD(isa.T2, isa.T5, isa.T1)
	b.ADDI(isa.T2, isa.T2, -1)
	b.DIVU(isa.T2, isa.T2, isa.T1)
	b.MUL(isa.S0, isa.T2, isa.T0) // lo
	b.ADD(isa.S1, isa.S0, isa.T2) // hi
	cclamp := b.Uniq("dwc_clamp")
	b.SF(isa.SFLES, isa.S1, isa.T5)
	b.BF(cclamp)
	b.MOV(isa.S1, isa.T5)
	b.Label(cclamp)
	cdone := b.Uniq("dwc_done")
	b.SF(isa.SFGES, isa.S0, isa.S1)
	b.BF(cdone)
	b.LA(isa.A2, "dwt_tmp")
	b.SLLI(isa.T3, isa.S0, 1)
	b.ADD(isa.A2, isa.A2, isa.T3)
	b.ADD(isa.A1, isa.A1, isa.T3)
	b.SUB(isa.S1, isa.S1, isa.S0)
	cloop := b.Uniq("dwc_loop")
	b.Label(cloop)
	emitLoadInc(b, t, isa.LHS, isa.T6, isa.A2, 2)
	emitStoreInc(b, t, isa.SH, isa.A1, isa.T6, 2)
	b.ADDI(isa.S1, isa.S1, -1)
	b.SFI(isa.SFGTSI, isa.S1, 0)
	b.BF(cloop)
	b.Label(cdone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1)

	// Final copy: in -> out over all n elements.
	b.Label("dwt_out")
	devrt.EmitPrologue(b, isa.S0, isa.S1)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1, out: isa.A2})
	devrt.EmitChunk(b, p.n, isa.S0, isa.S1)
	odone := b.Uniq("dwo_done")
	b.SF(isa.SFGES, isa.S0, isa.S1)
	b.BF(odone)
	b.SLLI(isa.T3, isa.S0, 1)
	b.ADD(isa.A1, isa.A1, isa.T3)
	b.ADD(isa.A2, isa.A2, isa.T3)
	b.SUB(isa.S1, isa.S1, isa.S0)
	oloop := b.Uniq("dwo_loop")
	b.Label(oloop)
	emitLoadInc(b, t, isa.LHS, isa.T6, isa.A1, 2)
	emitStoreInc(b, t, isa.SH, isa.A2, isa.T6, 2)
	b.ADDI(isa.S1, isa.S1, -1)
	b.SFI(isa.SFGTSI, isa.S1, 0)
	b.BF(oloop)
	b.Label(odone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1)

	return b.Build(asm.Layout{})
}
