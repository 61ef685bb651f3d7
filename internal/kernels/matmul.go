package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/fixed"
	"hetsim/internal/isa"
)

// Matrix multiplication, the paper's "quasi-ideal case for both
// parallelization and microarchitectural optimizations". Input layout is
// A (row-major) followed by B-transposed (row-major), so both operands of
// every dot product stream contiguously — the layout a tuned portable-C
// benchmark would pick, and the one that lets OR10N use its word loads and
// 4/2-way dot products.
//
// C[i][j] = clamp( (sum_k A[i][k]*BT[j][k]) >> shift )
// (fixed variant: per-product >>Q15 instead of a final shift).

type mmKind int

const (
	mmChar mmKind = iota
	mmShort
	mmFixed
)

type mmParams struct {
	kind  mmKind
	n     int32
	shift int32
}

func (p mmParams) elemSize() int32 {
	if p.kind == mmChar {
		return 1
	}
	return 2
}

// MatMulChar returns the char matmul instance (Table I row 1).
func MatMulChar(n int) *Instance {
	return newMatMul(mmParams{kind: mmChar, n: int32(n), shift: 6},
		"matmul", "Matrix multiplication on char data")
}

// MatMulShort returns the short matmul instance (Table I row 2).
func MatMulShort(n int) *Instance {
	return newMatMul(mmParams{kind: mmShort, n: int32(n), shift: 7},
		"matmul (short)", "Matrix multiplication on short data")
}

// MatMulFixed returns the Q15 fixed-point matmul instance (Table I row 3).
func MatMulFixed(n int) *Instance {
	return newMatMul(mmParams{kind: mmFixed, n: int32(n), shift: 15},
		"matmul (fixed)", "Matrix multiplication on 16-bit fixed-point data")
}

func newMatMul(p mmParams, name, desc string) *Instance {
	if p.n%4 != 0 {
		panic(fmt.Sprintf("kernels: matmul size %d must be a multiple of 4", p.n))
	}
	esz := p.elemSize()
	return &Instance{
		Name:       name,
		Field:      "linear algebra",
		Desc:       desc,
		ParamDesc:  fmt.Sprintf("%dx%d", p.n, p.n),
		MaxThreads: 4,
		inLen:      uint32(2 * p.n * p.n * esz),
		outLen:     uint32(p.n * p.n * esz),
		args:       [4]uint32{uint32(p.n), uint32(p.shift)},
		build: func(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildMatMul(t, mode, p)
		},
		genInput: func(seed uint64) []byte { return mmInput(p, seed) },
		golden:   func(in []byte) []byte { return mmGolden(p, in) },
	}
}

func mmInput(p mmParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x6d6d) // "mm"
	n := int(p.n)
	out := make([]byte, 2*n*n*int(p.elemSize()))
	switch p.kind {
	case mmChar:
		for i := range out {
			out[i] = byte(rng.i8(127))
		}
	case mmShort:
		for i := 0; i < 2*n*n; i++ {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(2000)))
		}
	case mmFixed:
		for i := 0; i < 2*n*n; i++ {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(32000)))
		}
	}
	return out
}

func mmGolden(p mmParams, in []byte) []byte {
	n := int(p.n)
	switch p.kind {
	case mmChar:
		a := in[:n*n]
		bt := in[n*n:]
		out := make([]byte, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var sum int32
				for k := 0; k < n; k++ {
					sum += int32(int8(a[i*n+k])) * int32(int8(bt[j*n+k]))
				}
				out[i*n+j] = byte(int8(fixed.Clamp8(sum >> uint(p.shift))))
			}
		}
		return out
	case mmShort, mmFixed:
		rd := func(buf []byte, idx int) int32 {
			return int32(int16(binary.LittleEndian.Uint16(buf[2*idx:])))
		}
		a := in[:2*n*n]
		bt := in[2*n*n:]
		out := make([]byte, 2*n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var sum int32
				for k := 0; k < n; k++ {
					prod := rd(a, i*n+k) * rd(bt, j*n+k)
					if p.kind == mmFixed {
						sum += prod >> uint(p.shift)
					} else {
						sum += prod
					}
				}
				if p.kind == mmShort {
					sum >>= uint(p.shift)
				}
				binary.LittleEndian.PutUint16(out[2*(i*n+j):], uint16(int16(fixed.Clamp16(sum))))
			}
		}
		return out
	}
	return nil
}

func buildMatMul(t isa.Target, mode devrt.Mode, p mmParams) (*asm.Program, error) {
	b := asm.NewBuilder("matmul")
	devrt.EmitCRT0(b, mode)

	b.Label("main")
	devrt.EmitPrologue(b)
	devrt.EmitParallel(b, "mm_body")
	devrt.EmitEpilogue(b)

	esz := p.elemSize()
	n := p.n

	// Parallel body: rows [lo,hi) of C for this core. Each core starts its
	// column sweep at a core-specific rotation j0 = id*n/4 so that the four
	// cores stream different rows of the shared BT matrix: without the
	// skew, all cores read the same word-interleaved bank sequence in
	// lockstep and the TCDM serializes them (the classic banked-scratchpad
	// pitfall the PULP demo kernels avoid the same way).
	b.Label("mm_body")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1, out: isa.A2})
	devrt.EmitChunk(b, n, isa.S3 /*lo*/, isa.T4 /*hi*/)
	b.SUB(isa.S3, isa.T4, isa.S3) // rows to do
	hiReg := isa.T4
	loRecover := isa.T5
	// Recompute lo = hi - rows (chunk clobbered T regs; S3 now holds count).
	b.SUB(loRecover, hiReg, isa.S3)
	// S0 = A + lo*n*esz ; S2 = C + lo*n*osz ; S1 = BT base + lo-independent
	b.LI(isa.T6, n*esz)
	b.MUL(isa.T7, loRecover, isa.T6)
	b.ADD(isa.S0, isa.A1, isa.T7)
	b.ADD(isa.S2, isa.A2, isa.T7) // same row pitch for output (esz == osz)
	b.LI(isa.T8, n*n*esz)
	b.ADD(isa.S1, isa.A1, isa.T8)
	// S4 = j0 (elements); S5 = j0*n*esz (BT offset); S6 = j0*esz (C offset)
	// j0 = (id * n/4) mod n so the skew stays in range for any team size.
	b.MFSPR(isa.T5, isa.SprCoreID)
	b.LI(isa.T6, n/4)
	b.MUL(isa.S4, isa.T5, isa.T6)
	b.LI(isa.T6, n)
	b.DIVU(isa.T7, isa.S4, isa.T6)
	b.MUL(isa.T7, isa.T7, isa.T6)
	b.SUB(isa.S4, isa.S4, isa.T7)
	b.LI(isa.T6, n*esz)
	b.MUL(isa.S5, isa.S4, isa.T6)
	b.LI(isa.T6, esz)
	b.MUL(isa.S6, isa.S4, isa.T6)

	noRows := b.Uniq("mm_norows")
	b.SFI(isa.SFLESI, isa.S3, 0)
	b.BF(noRows)

	emitCol := func(loopIdx int) {
		b.MOV(isa.A3, isa.S0) // a = row start
		b.LI(isa.T6, 0)       // acc
		r := dotRegs{acc: isa.T6, aPtr: isa.A3, bPtr: isa.A4, cnt: isa.T7, x: isa.T8, y: isa.T9}
		switch p.kind {
		case mmChar:
			emitDotChar(b, t, r, n, loopIdx)
		case mmShort:
			emitDotShort(b, t, r, n, loopIdx)
		case mmFixed:
			emitDotFixed(b, t, r, n, p.shift, loopIdx)
		}
		if p.kind != mmFixed {
			b.SRAI(isa.T6, isa.T6, p.shift)
		}
		if p.kind == mmChar {
			emitClamp(b, t, isa.T6, isa.T7, -128, 127)
			emitStoreInc(b, t, isa.SB, isa.S7, isa.T6, 1)
		} else {
			emitClamp(b, t, isa.T6, isa.T7, -32768, 32767)
			emitStoreInc(b, t, isa.SH, isa.S7, isa.T6, 2)
		}
	}

	rowLoop := b.Uniq("mm_row")
	b.Label(rowLoop)
	// Segment 1: columns j0..n-1.
	b.ADD(isa.A4, isa.S1, isa.S5) // bt = BT + j0 rows
	b.ADD(isa.S7, isa.S2, isa.S6) // C cursor at column j0
	b.LI(isa.A5, n)
	b.SUB(isa.A5, isa.A5, isa.S4)
	devrt.EmitLoop(b, t, isa.A5, 1, 1, func(int) { emitCol(0) })
	// Segment 2: columns 0..j0-1 (skipped when j0 == 0).
	seg2Done := b.Uniq("mm_seg2")
	b.SFI(isa.SFEQI, isa.S4, 0)
	b.BF(seg2Done)
	b.MOV(isa.A4, isa.S1)
	b.MOV(isa.S7, isa.S2)
	b.MOV(isa.A5, isa.S4)
	devrt.EmitLoop(b, t, isa.A5, 1, 1, func(int) { emitCol(0) })
	b.Label(seg2Done)
	b.ADDI(isa.S0, isa.S0, n*esz)
	b.ADDI(isa.S2, isa.S2, n*esz)
	b.ADDI(isa.S3, isa.S3, -1)
	b.SFI(isa.SFGTSI, isa.S3, 0)
	b.BF(rowLoop)
	b.Label(noRows)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)

	return b.Build(asm.Layout{})
}
