package kernels

import (
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/fixed"
	"hetsim/internal/isa"
)

// Strassen's fast matrix multiplication on char data (Table I row 4): one
// level of the recursion, seven half-size products plus the quadrant
// add/sub phases. Inputs are bounded to +-63 so the operand sums still fit
// in int8, which lets the preparation phases use the 4-way SIMD byte
// adds and the products use the 4-way dot product — making strassen the
// most accelerator-friendly benchmark of the suite (it tops Fig. 5a).
//
// Input layout is A followed by B-transposed, like matmul. With BT stored,
// the B-side quadrant (i,j) of the textbook formulas becomes BT quadrant
// (j,i), and every product is a plain row-by-row dot.

type strParams struct {
	n, n2 int32
	shift int32
}

type quadOp struct {
	q1, q2 int32 // quadrant index 0..3 (row-major); q2 = -1 for copy
	sub    bool
}

type strProduct struct {
	a quadOp // on A
	b quadOp // on BT (already transposed indices)
}

// quadrant index helpers: 0=11, 1=12, 2=21, 3=22 (row-major).
const (
	q11 = 0
	q12 = 1
	q21 = 2
	q22 = 3
)

// strProducts lists M1..M7. B-side quadrants are given in BT coordinates:
// textbook B(i,j) appears here as BT quadrant (j,i).
var strProducts = [7]strProduct{
	{a: quadOp{q11, q22, false}, b: quadOp{q11, q22, false}}, // M1=(A11+A22)(B11+B22)
	{a: quadOp{q21, q22, false}, b: quadOp{q11, -1, false}},  // M2=(A21+A22)B11
	{a: quadOp{q11, -1, false}, b: quadOp{q21, q22, true}},   // M3=A11(B12-B22) -> BT21-BT22
	{a: quadOp{q22, -1, false}, b: quadOp{q12, q11, true}},   // M4=A22(B21-B11) -> BT12-BT11
	{a: quadOp{q11, q12, false}, b: quadOp{q22, -1, false}},  // M5=(A11+A12)B22
	{a: quadOp{q21, q11, true}, b: quadOp{q11, q21, false}},  // M6=(A21-A11)(B11+B12) -> BT11+BT21
	{a: quadOp{q12, q22, true}, b: quadOp{q12, q22, false}},  // M7=(A12-A22)(B21+B22) -> BT12+BT22
}

// Strassen returns the one-level Strassen instance for an n x n char
// matrix (n divisible by 8).
func Strassen(n int) *Instance {
	p := strParams{n: int32(n), n2: int32(n) / 2, shift: 8}
	if n%8 != 0 || n < 8 {
		panic(fmt.Sprintf("kernels: strassen size %d must be a multiple of 8", n))
	}
	return &Instance{
		Name:       "strassen",
		Field:      "linear algebra",
		Desc:       "Strassen algorithm for fast matrix multiplication",
		ParamDesc:  fmt.Sprintf("%dx%d", n, n),
		MaxThreads: 4,
		inLen:      uint32(2 * p.n * p.n),
		outLen:     uint32(p.n * p.n),
		args:       [4]uint32{uint32(p.n), uint32(p.shift)},
		build: func(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildStrassen(t, mode, p)
		},
		genInput: func(seed uint64) []byte { return strInput(p, seed) },
		golden:   func(in []byte) []byte { return strGolden(p, in) },
	}
}

func strInput(p strParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x737472) // "str"
	out := make([]byte, 2*p.n*p.n)
	for i := range out {
		out[i] = byte(rng.i8(63))
	}
	return out
}

func strGolden(p strParams, in []byte) []byte {
	n, n2 := int(p.n), int(p.n2)
	a := in[:n*n]
	bt := in[n*n:]
	quad := func(m []byte, q int32) func(r, c int) int32 {
		qr, qc := int(q)/2, int(q)%2
		return func(r, c int) int32 {
			return int32(int8(m[(qr*n2+r)*n+qc*n2+c]))
		}
	}
	prep := func(m []byte, op quadOp) []int32 {
		out := make([]int32, n2*n2)
		g1 := quad(m, op.q1)
		var g2 func(r, c int) int32
		if op.q2 >= 0 {
			g2 = quad(m, op.q2)
		}
		for r := 0; r < n2; r++ {
			for c := 0; c < n2; c++ {
				v := g1(r, c)
				if g2 != nil {
					if op.sub {
						v -= g2(r, c)
					} else {
						v += g2(r, c)
					}
				}
				// Device stores the operand as int8 (wrapping like add4b);
				// inputs are bounded so no wrap occurs, but mirror anyway.
				out[r*n2+c] = int32(int8(v))
			}
		}
		return out
	}
	var m [7][]int32
	for i, pr := range strProducts {
		ta := prep(a, pr.a)
		tb := prep(bt, pr.b)
		mi := make([]int32, n2*n2)
		for r := 0; r < n2; r++ {
			for c := 0; c < n2; c++ {
				var sum int32
				for k := 0; k < n2; k++ {
					sum += ta[r*n2+k] * tb[c*n2+k]
				}
				mi[r*n2+c] = sum
			}
		}
		m[i] = mi
	}
	out := make([]byte, n*n)
	store := func(q int32, r, c int, v int32) {
		qr, qc := int(q)/2, int(q)%2
		out[(qr*n2+r)*n+qc*n2+c] = byte(int8(fixed.Clamp8(v >> uint(p.shift))))
	}
	for r := 0; r < n2; r++ {
		for c := 0; c < n2; c++ {
			i := r*n2 + c
			store(q11, r, c, m[0][i]+m[3][i]-m[4][i]+m[6][i])
			store(q12, r, c, m[2][i]+m[4][i])
			store(q21, r, c, m[1][i]+m[3][i])
			store(q22, r, c, m[0][i]-m[1][i]+m[2][i]+m[5][i])
		}
	}
	return out
}

// --- device code -----------------------------------------------------------

func buildStrassen(t isa.Target, mode devrt.Mode, p strParams) (*asm.Program, error) {
	b := asm.NewBuilder("strassen")
	devrt.EmitCRT0(b, mode)

	n, n2 := p.n, p.n2
	b.Space("str_ta", uint32(n2*n2), 4)
	b.Space("str_tb", uint32(n2*n2), 4)
	b.Space("str_m", uint32(7*n2*n2*4), 4)
	b.Space("str_args", 4, 4) // dstM pointer for the shared product body

	b.Label("main")
	devrt.EmitPrologue(b, isa.S0, isa.S1)
	for i := 0; i < 7; i++ {
		devrt.EmitParallel(b, fmt.Sprintf("str_prep%d", i))
		// Publish M_i as the product destination, then run the product.
		b.LA(isa.T5, "str_args")
		b.LA(isa.T6, "str_m")
		b.LI(isa.T7, int32(i)*n2*n2*4)
		b.ADD(isa.T6, isa.T6, isa.T7)
		b.SW(isa.T5, isa.T6, 0)
		devrt.EmitParallel(b, "str_mm")
	}
	devrt.EmitParallel(b, "str_combine")
	devrt.EmitEpilogue(b, isa.S0, isa.S1)

	// quadBase emits: dst = srcBase + (qr*n2*n + qc*n2) + r*n for quadrant q
	// and row register rReg (srcBase and rReg preserved).
	quadBase := func(dst, srcBase, rReg isa.Reg, q int32) {
		qr, qc := q/2, q%2
		b.LI(isa.T8, n)
		b.MUL(dst, rReg, isa.T8)
		b.ADD(dst, dst, srcBase)
		if off := qr*n2*n + qc*n2; off != 0 {
			b.LI(isa.T8, off)
			b.ADD(dst, dst, isa.T8)
		}
	}

	// emitPrepSide emits the row loop filling dst (contiguous n2 bytes per
	// row) from one or two quadrant rows of src. Row index in S4.
	emitPrepSide := func(dstSym isa.Reg, srcBase isa.Reg, op quadOp) {
		quadBase(isa.A3, srcBase, isa.S4, op.q1)
		if op.q2 >= 0 {
			quadBase(isa.A4, srcBase, isa.S4, op.q2)
		}
		if op.q2 < 0 {
			// Copy one quadrant row, word-wise (rows are 4-aligned).
			b.LI(isa.T5, n2/4)
			devrt.EmitLoop(b, t, isa.T5, 0, 1, func(int) {
				emitLoadInc(b, t, isa.LW, isa.T6, isa.A3, 4)
				emitStoreInc(b, t, isa.SW, dstSym, isa.T6, 4)
			})
			return
		}
		if t.Feat.SIMD {
			b.LI(isa.T5, n2/4)
			devrt.EmitLoop(b, t, isa.T5, 0, 1, func(int) {
				emitLoadInc(b, t, isa.LW, isa.T6, isa.A3, 4)
				emitLoadInc(b, t, isa.LW, isa.T7, isa.A4, 4)
				if op.sub {
					b.SUB4B(isa.T6, isa.T6, isa.T7)
				} else {
					b.ADD4B(isa.T6, isa.T6, isa.T7)
				}
				emitStoreInc(b, t, isa.SW, dstSym, isa.T6, 4)
			})
			return
		}
		b.LI(isa.T5, n2)
		unroll := 1
		if !t.Feat.HWLoop {
			unroll = 4
		}
		devrt.EmitLoop(b, t, isa.T5, 0, unroll, func(int) {
			emitLoadInc(b, t, isa.LBS, isa.T6, isa.A3, 1)
			emitLoadInc(b, t, isa.LBS, isa.T7, isa.A4, 1)
			if op.sub {
				b.SUB(isa.T6, isa.T6, isa.T7)
			} else {
				b.ADD(isa.T6, isa.T6, isa.T7)
			}
			emitStoreInc(b, t, isa.SB, dstSym, isa.T6, 1)
		})
	}

	// The 7 preparation bodies: rows of TA/TB chunked across the team.
	for i, pr := range strProducts {
		b.Label(fmt.Sprintf("str_prep%d", i))
		devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5)
		emitGlob(b, globCtx{base: isa.A0, in: isa.A1})
		b.MOV(isa.S0, isa.A1) // A base
		b.LI(isa.T5, n*n)
		b.ADD(isa.S1, isa.A1, isa.T5) // BT base
		devrt.EmitChunk(b, n2, isa.S4, isa.S5)
		done := b.Uniq("sp_done")
		b.SF(isa.SFGES, isa.S4, isa.S5)
		b.BF(done)
		// S2 = TA + lo*n2 ; S3 = TB + lo*n2 (contiguous row pitch)
		b.LA(isa.S2, "str_ta")
		b.LA(isa.S3, "str_tb")
		b.LI(isa.T5, n2)
		b.MUL(isa.T6, isa.S4, isa.T5)
		b.ADD(isa.S2, isa.S2, isa.T6)
		b.ADD(isa.S3, isa.S3, isa.T6)
		row := b.Uniq("sp_row")
		b.Label(row)
		emitPrepSide(isa.S2, isa.S0, pr.a)
		emitPrepSide(isa.S3, isa.S1, pr.b)
		b.ADDI(isa.S4, isa.S4, 1)
		b.SF(isa.SFLTS, isa.S4, isa.S5)
		b.BF(row)
		b.Label(done)
		devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5)
	}

	// Shared product body: M = TA x TB^T (char dot products, int32 out).
	b.Label("str_mm")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3)
	devrt.EmitChunk(b, n2, isa.S3, isa.T4)
	b.SUB(isa.S3, isa.T4, isa.S3)
	b.SUB(isa.T5, isa.T4, isa.S3) // lo
	b.LA(isa.S0, "str_ta")
	b.LI(isa.T6, n2)
	b.MUL(isa.T7, isa.T5, isa.T6)
	b.ADD(isa.S0, isa.S0, isa.T7) // TA row
	b.LA(isa.S1, "str_tb")
	b.LA(isa.S2, "str_args")
	b.LW(isa.S2, isa.S2, 0) // M base
	b.SLLI(isa.T7, isa.T7, 2)
	b.ADD(isa.S2, isa.S2, isa.T7) // M write ptr (int32 pitch)
	mmDone := b.Uniq("smm_done")
	b.SFI(isa.SFLESI, isa.S3, 0)
	b.BF(mmDone)
	mmRow := b.Uniq("smm_row")
	b.Label(mmRow)
	b.MOV(isa.A4, isa.S1)
	b.LI(isa.A5, n2)
	devrt.EmitLoop(b, t, isa.A5, 1, 1, func(int) {
		b.MOV(isa.A3, isa.S0)
		b.LI(isa.T6, 0)
		emitDotChar(b, t, dotRegs{acc: isa.T6, aPtr: isa.A3, bPtr: isa.A4, cnt: isa.T7, x: isa.T8, y: isa.T9}, n2, 0)
		emitStoreInc(b, t, isa.SW, isa.S2, isa.T6, 4)
	})
	b.ADDI(isa.S0, isa.S0, n2)
	b.ADDI(isa.S3, isa.S3, -1)
	b.SFI(isa.SFGTSI, isa.S3, 0)
	b.BF(mmRow)
	b.Label(mmDone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3)

	// Combine body: rows of the half-size index space chunked; each row
	// produces one row of each C quadrant.
	type combo struct {
		quad  int32
		terms []int32 // M indices
		signs []int32
	}
	combos := []combo{
		{q11, []int32{0, 3, 4, 6}, []int32{1, 1, -1, 1}},
		{q12, []int32{2, 4}, []int32{1, 1}},
		{q21, []int32{1, 3}, []int32{1, 1}},
		{q22, []int32{0, 1, 2, 5}, []int32{1, -1, 1, 1}},
	}
	b.Label("str_combine")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5)
	emitGlob(b, globCtx{base: isa.A0, out: isa.A2})
	b.MOV(isa.S0, isa.A2) // C base
	b.LA(isa.S1, "str_m")
	devrt.EmitChunk(b, n2, isa.S4, isa.S5)
	cbDone := b.Uniq("scb_done")
	b.SF(isa.SFGES, isa.S4, isa.S5)
	b.BF(cbDone)
	cbRow := b.Uniq("scb_row")
	b.Label(cbRow)
	for _, cb := range combos {
		// Term pointers: A3..A5, S2 as needed (max 4 terms).
		ptrRegs := []isa.Reg{isa.A3, isa.A4, isa.A5, isa.S2}
		for ti, mi := range cb.terms {
			b.LI(isa.T5, mi*n2*n2*4)
			b.ADD(ptrRegs[ti], isa.S1, isa.T5)
			b.LI(isa.T5, n2*4)
			b.MUL(isa.T6, isa.S4, isa.T5)
			b.ADD(ptrRegs[ti], ptrRegs[ti], isa.T6)
		}
		// Output pointer S3 = C + (qr*n2+r)*n + qc*n2
		quadBase(isa.S3, isa.S0, isa.S4, cb.quad)
		b.LI(isa.T5, n2)
		devrt.EmitLoop(b, t, isa.T5, 1, 1, func(int) {
			emitLoadInc(b, t, isa.LW, isa.T6, ptrRegs[0], 4)
			for ti := 1; ti < len(cb.terms); ti++ {
				emitLoadInc(b, t, isa.LW, isa.T7, ptrRegs[ti], 4)
				if cb.signs[ti] < 0 {
					b.SUB(isa.T6, isa.T6, isa.T7)
				} else {
					b.ADD(isa.T6, isa.T6, isa.T7)
				}
			}
			b.SRAI(isa.T6, isa.T6, p.shift)
			emitClamp(b, t, isa.T6, isa.T7, -128, 127)
			emitStoreInc(b, t, isa.SB, isa.S3, isa.T6, 1)
		})
	}
	b.ADDI(isa.S4, isa.S4, 1)
	b.SF(isa.SFLTS, isa.S4, isa.S5)
	b.BF(cbRow)
	b.Label(cbDone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5)

	return b.Build(asm.Layout{})
}
