package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/fixed"
	"hetsim/internal/isa"
)

// Histogram of Oriented Gradients feature descriptor (Table I row 10), in
// the spirit of the VLFeat implementation the paper ports: 8x8-pixel
// cells, 9 unsigned orientation bins, 2x2-cell blocks with L2
// normalization. As in the paper, the kernel works on 32-bit fixed-point
// data whose dynamic range forces 64-bit intermediates: the Q16 magnitude
// x bilinear-weight products and the block-energy accumulation both go
// through the 64-bit MAC chain — single-cycle on the Cortex-M4 (SMLAL),
// software-emulated on OR10N, which is why hog is the one benchmark with
// an architectural slowdown in Fig. 4.
//
// Pipeline (all phases OpenMP-parallel):
//
//	zero:   clear the cell histograms
//	cells:  per pixel: central-difference gradient, magnitude by integer
//	        sqrt, orientation bin by a tan-table comparison network,
//	        Q16 x-bilinear vote into the two neighbouring cell columns
//	blocks: per 2x2 block: 64-bit energy = sum h^2, n = sqrt(e>>24)+1,
//	        output h/n for the 36 block values
type hogParams struct {
	w, h   int32
	cw, ch int32 // cells
	bw, bh int32 // blocks
}

const (
	hogCell = 8
	hogBins = 9
	hogMagQ = 14 // magnitude fixed-point format for the votes
)

// hogTan is tan(20k degrees) in Q13 for k=1..8 (the bin boundary network).
var hogTan = [9]int32{0,
	2981,   // tan 20
	6873,   // tan 40
	14189,  // tan 60
	46461,  // tan 80
	-46461, // tan 100
	-14189, // tan 120
	-6873,  // tan 140
	-2981,  // tan 160
}

// HOG returns a hog instance over a w x h 8-bit image.
func HOG(w, h int) *Instance {
	p := hogParams{w: int32(w), h: int32(h)}
	if w%hogCell != 0 || h%hogCell != 0 || w < 2*hogCell || h < 2*hogCell {
		panic(fmt.Sprintf("kernels: hog image %dx%d must be a multiple of %d and at least two cells", w, h, hogCell))
	}
	p.cw, p.ch = p.w/hogCell, p.h/hogCell
	p.bw, p.bh = p.cw-1, p.ch-1
	return &Instance{
		Name:       "hog",
		Field:      "vision",
		Desc:       "Histogram of Oriented Gradients feature descriptor",
		ParamDesc:  fmt.Sprintf("%dx%d, %dx%d cells", w, h, p.cw, p.ch),
		MaxThreads: 4,
		inLen:      uint32(p.w * p.h),
		outLen:     uint32(4 * p.bw * p.bh * 4 * hogBins),
		args:       [4]uint32{uint32(w), uint32(h)},
		build: func(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildHOG(t, mode, p)
		},
		genInput: func(seed uint64) []byte { return hogInput(p, seed) },
		golden:   func(in []byte) []byte { return hogGolden(p, in) },
	}
}

func hogInput(p hogParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x686f67) // "hog"
	out := make([]byte, p.w*p.h)
	// Smooth-ish synthetic image: low-frequency ramps plus noise, so
	// gradients cover all orientations.
	for r := int32(0); r < p.h; r++ {
		for c := int32(0); c < p.w; c++ {
			v := 128 + 64*int32((r*5)/p.h) - 48*int32((c*3)/p.w) + rng.i32(40)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out[r*p.w+c] = byte(v)
		}
	}
	return out
}

// hogBin is the orientation-bin comparison network; the device code is an
// instruction-level transcription (same tan table, same tie behaviour).
func hogBin(gx, gy int32) int32 {
	if gy < 0 {
		gx, gy = -gx, -gy
	}
	bin := int32(0)
	for k := 1; k <= 4; k++ {
		if gx <= 0 || gy<<13 >= gx*hogTan[k] {
			bin++
		}
	}
	for k := 5; k <= 8; k++ {
		if gx < 0 && gy<<13 <= gx*hogTan[k] {
			bin++
		}
	}
	return bin
}

func hogGolden(p hogParams, in []byte) []byte {
	hist := make([]int32, p.cw*p.ch*hogBins)
	for r := int32(1); r < p.h-1; r++ {
		cr := r / hogCell
		rowHist := hist[cr*p.cw*hogBins:]
		for c := int32(1); c < p.w-1; c++ {
			gx := int32(in[r*p.w+c+1]) - int32(in[r*p.w+c-1])
			gy := int32(in[(r+1)*p.w+c]) - int32(in[(r-1)*p.w+c])
			mag := int32(fixed.ISqrt32(uint32(gx*gx + gy*gy)))
			bin := hogBin(gx, gy)
			magq := mag << hogMagQ
			cx := c >> 3
			t := 2*(c&7) + 1
			var nb, wN int32
			if t < 8 {
				nb = cx - 1
				wN = (8 - t) << 12
			} else {
				nb = cx + 1
				wN = (t - 8) << 12
			}
			wS := (1 << 16) - wN
			rowHist[cx*hogBins+bin] += int32((int64(magq) * int64(wS)) >> 16)
			if nb >= 0 && nb < p.cw {
				rowHist[nb*hogBins+bin] += int32((int64(magq) * int64(wN)) >> 16)
			}
		}
	}
	out := make([]byte, 4*p.bw*p.bh*4*hogBins)
	oi := 0
	for br := int32(0); br < p.bh; br++ {
		for bc := int32(0); bc < p.bw; bc++ {
			base := (br*p.cw + bc) * hogBins
			cells := [4]int32{base, base + hogBins, base + p.cw*hogBins, base + (p.cw+1)*hogBins}
			var e int64
			for _, cb := range cells {
				for j := int32(0); j < hogBins; j++ {
					h := int64(hist[cb+j])
					e += h * h
				}
			}
			e32 := uint32(uint64(e) >> 24)
			n := int32(fixed.ISqrt32(e32)) + 1
			for _, cb := range cells {
				for j := int32(0); j < hogBins; j++ {
					binary.LittleEndian.PutUint32(out[4*oi:], uint32(hist[cb+j]/n))
					oi++
				}
			}
		}
	}
	return out
}

// --- device code ---------------------------------------------------------

func buildHOG(t isa.Target, mode devrt.Mode, p hogParams) (*asm.Program, error) {
	b := asm.NewBuilder("hog")
	devrt.EmitCRT0(b, mode)

	histWords := p.cw * p.ch * hogBins
	b.Space("hog_hist", uint32(4*histWords), 4)

	b.Label("main")
	devrt.EmitPrologue(b)
	devrt.EmitParallel(b, "hog_zero")
	devrt.EmitParallel(b, "hog_cells")
	devrt.EmitParallel(b, "hog_blocks")
	devrt.EmitEpilogue(b)

	// ---- zero the histograms ----
	b.Label("hog_zero")
	devrt.EmitPrologue(b, isa.S0, isa.S1)
	devrt.EmitChunk(b, histWords, isa.S0, isa.S1)
	b.SUB(isa.S1, isa.S1, isa.S0) // count
	zDone := b.Uniq("hz_done")
	b.SFI(isa.SFLESI, isa.S1, 0)
	b.BF(zDone)
	b.LA(isa.A3, "hog_hist")
	b.SLLI(isa.T5, isa.S0, 2)
	b.ADD(isa.A3, isa.A3, isa.T5)
	zLoop := b.Uniq("hz_loop")
	b.Label(zLoop)
	emitStoreInc(b, t, isa.SW, isa.A3, isa.R0, 4)
	b.ADDI(isa.S1, isa.S1, -1)
	b.SFI(isa.SFGTSI, isa.S1, 0)
	b.BF(zLoop)
	b.Label(zDone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1)

	// ---- gradient + cell votes ----
	// S0=cr S1=img S2=crHi S3=rowHist S4=r S5=rEnd S6=c S7=bin S8=magq
	b.Label("hog_cells")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7, isa.S8)
	emitGlob(b, globCtx{base: isa.A0, in: isa.A1})
	b.MOV(isa.S1, isa.A1)
	devrt.EmitChunk(b, p.ch, isa.S0, isa.S2)
	cDone := b.Uniq("hc_done")
	b.SF(isa.SFGES, isa.S0, isa.S2)
	b.BF(cDone)
	crLoop := b.Uniq("hc_cr")
	b.Label(crLoop)
	// rowHist = hist + cr*cw*bins*4
	b.LA(isa.S3, "hog_hist")
	b.LI(isa.T5, p.cw*hogBins*4)
	b.MUL(isa.T6, isa.S0, isa.T5)
	b.ADD(isa.S3, isa.S3, isa.T6)
	// r in [max(8*cr,1), min(8*cr+8, h-1))
	b.SLLI(isa.S4, isa.S0, 3)
	rOK := b.Uniq("hc_r0")
	b.SFI(isa.SFNEI, isa.S4, 0)
	b.BF(rOK)
	b.LI(isa.S4, 1)
	b.Label(rOK)
	b.SLLI(isa.S5, isa.S0, 3)
	b.ADDI(isa.S5, isa.S5, 8)
	b.LI(isa.T5, p.h-1)
	rOK2 := b.Uniq("hc_rh")
	b.SF(isa.SFLES, isa.S5, isa.T5)
	b.BF(rOK2)
	b.MOV(isa.S5, isa.T5)
	b.Label(rOK2)
	crNext := b.Uniq("hc_crnext")
	b.SF(isa.SFGES, isa.S4, isa.S5)
	b.BF(crNext)

	rowLoop := b.Uniq("hc_row")
	b.Label(rowLoop)
	// A3 = img + r*w + 1 (pointer to p[r][c])
	b.LI(isa.T5, p.w)
	b.MUL(isa.T6, isa.S4, isa.T5)
	b.ADD(isa.A3, isa.S1, isa.T6)
	b.ADDI(isa.A3, isa.A3, 1)
	b.LI(isa.S6, 1)

	colLoop := b.Uniq("hc_col")
	b.Label(colLoop)
	// gx = p[r][c+1] - p[r][c-1]; gy = p[r+1][c] - p[r-1][c]
	b.Load(isa.LBZ, isa.T7, isa.A3, 1)
	b.Load(isa.LBZ, isa.T8, isa.A3, -1)
	b.SUB(isa.A4, isa.T7, isa.T8)
	b.Load(isa.LBZ, isa.T7, isa.A3, p.w)
	b.Load(isa.LBZ, isa.T8, isa.A3, -p.w)
	b.SUB(isa.A5, isa.T7, isa.T8)
	// mag2 into A0 (sqrt argument)
	b.MUL(isa.T7, isa.A4, isa.A4)
	b.MUL(isa.T8, isa.A5, isa.A5)
	b.ADD(isa.A0, isa.T7, isa.T8)
	// Orientation bin network -> S7. Clobbers T7-T9, A4, A5.
	b.LI(isa.S7, 0)
	flip := b.Uniq("hb_flip")
	b.SFI(isa.SFGESI, isa.A5, 0)
	b.BF(flip)
	b.SUB(isa.A4, isa.R0, isa.A4)
	b.SUB(isa.A5, isa.R0, isa.A5)
	b.Label(flip)
	b.SLLI(isa.T9, isa.A5, 13) // gy<<13
	for k := 1; k <= 4; k++ {
		hit := b.Uniq("hb_hit")
		next := b.Uniq("hb_next")
		b.SFI(isa.SFLESI, isa.A4, 0)
		b.BF(hit)
		b.LI(isa.T7, hogTan[k])
		b.MUL(isa.T7, isa.A4, isa.T7)
		b.SF(isa.SFGES, isa.T9, isa.T7)
		b.BNF(next)
		b.Label(hit)
		b.ADDI(isa.S7, isa.S7, 1)
		b.Label(next)
	}
	for k := 5; k <= 8; k++ {
		next := b.Uniq("hb_next2")
		b.SFI(isa.SFGESI, isa.A4, 0)
		b.BF(next)
		b.LI(isa.T7, hogTan[k])
		b.MUL(isa.T7, isa.A4, isa.T7)
		b.SF(isa.SFGTS, isa.T9, isa.T7)
		b.BF(next)
		b.ADDI(isa.S7, isa.S7, 1)
		b.Label(next)
	}
	// magnitude
	b.JAL("__sqrt32")
	b.SLLI(isa.S8, isa.RV, hogMagQ)
	// cx, bilinear weights
	b.SRLI(isa.T7, isa.S6, 3) // cx
	b.ANDI(isa.T8, isa.S6, 7)
	b.SLLI(isa.T8, isa.T8, 1)
	b.ADDI(isa.T8, isa.T8, 1) // t = 2*xc+1
	left := b.Uniq("hw_left")
	wjoin := b.Uniq("hw_join")
	b.SFI(isa.SFLTSI, isa.T8, 8)
	b.BF(left)
	b.ADDI(isa.A4, isa.T7, 1) // nb = cx+1
	b.ADDI(isa.T9, isa.T8, -8)
	b.SLLI(isa.T9, isa.T9, 12) // wN
	b.J(wjoin)
	b.Label(left)
	b.ADDI(isa.A4, isa.T7, -1)
	b.LI(isa.T9, 8)
	b.SUB(isa.T9, isa.T9, isa.T8)
	b.SLLI(isa.T9, isa.T9, 12)
	b.Label(wjoin)
	// wS (A5) = 65536 - wN
	b.MOVHI(isa.A1, 1)
	b.SUB(isa.A5, isa.A1, isa.T9)
	// self vote: ptr A1 = rowHist + cx*36 + bin*4
	b.SLLI(isa.A1, isa.T7, 5)
	b.SLLI(isa.T8, isa.T7, 2)
	b.ADD(isa.A1, isa.A1, isa.T8)
	b.ADD(isa.A1, isa.A1, isa.S3)
	b.SLLI(isa.T8, isa.S7, 2)
	b.ADD(isa.A1, isa.A1, isa.T8)
	acc := devrt.Acc64{T: t, Lo: isa.T5, Hi: isa.T6, Tmp: [5]isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4}}
	devrt.EmitMulFixQ(b, t, isa.T7, isa.S8, isa.A5, 16, acc)
	b.LW(isa.T8, isa.A1, 0)
	b.ADD(isa.T8, isa.T8, isa.T7)
	b.SW(isa.A1, isa.T8, 0)
	// neighbour vote if 0 <= nb < cw
	nbSkip := b.Uniq("hw_nbskip")
	b.SFI(isa.SFLTSI, isa.A4, 0)
	b.BF(nbSkip)
	b.SFI(isa.SFGESI, isa.A4, p.cw)
	b.BF(nbSkip)
	b.SLLI(isa.A1, isa.A4, 5)
	b.SLLI(isa.T8, isa.A4, 2)
	b.ADD(isa.A1, isa.A1, isa.T8)
	b.ADD(isa.A1, isa.A1, isa.S3)
	b.SLLI(isa.T8, isa.S7, 2)
	b.ADD(isa.A1, isa.A1, isa.T8)
	devrt.EmitMulFixQ(b, t, isa.T7, isa.S8, isa.T9, 16, acc)
	b.LW(isa.T8, isa.A1, 0)
	b.ADD(isa.T8, isa.T8, isa.T7)
	b.SW(isa.A1, isa.T8, 0)
	b.Label(nbSkip)
	// next column
	b.ADDI(isa.A3, isa.A3, 1)
	b.ADDI(isa.S6, isa.S6, 1)
	b.SFI(isa.SFLTSI, isa.S6, p.w-1)
	b.BF(colLoop)
	// next row
	b.ADDI(isa.S4, isa.S4, 1)
	b.SF(isa.SFLTS, isa.S4, isa.S5)
	b.BF(rowLoop)
	b.Label(crNext)
	b.ADDI(isa.S0, isa.S0, 1)
	b.SF(isa.SFLTS, isa.S0, isa.S2)
	b.BF(crLoop)
	b.Label(cDone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7, isa.S8)

	// ---- block normalization ----
	// S0=br S1=out S2=brHi S3=blockCellBase S4=bc S5/S6=acc64 S7=n S8=outPtr
	b.Label("hog_blocks")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7, isa.S8)
	emitGlob(b, globCtx{base: isa.A0, out: isa.A2})
	b.MOV(isa.S1, isa.A2)
	devrt.EmitChunk(b, p.bh, isa.S0, isa.S2)
	bDone := b.Uniq("hb_done")
	b.SF(isa.SFGES, isa.S0, isa.S2)
	b.BF(bDone)
	cellOffs := [4]int32{0, hogBins * 4, p.cw * hogBins * 4, (p.cw + 1) * hogBins * 4}
	brLoop := b.Uniq("hb_br")
	b.Label(brLoop)
	// S3 = hist + br*cw*36 ; S8 = out + br*bw*36words*4
	b.LA(isa.S3, "hog_hist")
	b.LI(isa.T5, p.cw*hogBins*4)
	b.MUL(isa.T6, isa.S0, isa.T5)
	b.ADD(isa.S3, isa.S3, isa.T6)
	b.LI(isa.T5, p.bw*4*hogBins*4)
	b.MUL(isa.T6, isa.S0, isa.T5)
	b.ADD(isa.S8, isa.S1, isa.T6)
	b.LI(isa.S4, 0) // bc
	bcLoop := b.Uniq("hb_bc")
	b.Label(bcLoop)
	blockAcc := devrt.Acc64{T: t, Lo: isa.S5, Hi: isa.S6, Tmp: [5]isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4}}
	blockAcc.Clear(b)
	// base cell ptr A5 = S3 + bc*36
	b.SLLI(isa.A5, isa.S4, 5)
	b.SLLI(isa.T5, isa.S4, 2)
	b.ADD(isa.A5, isa.A5, isa.T5)
	b.ADD(isa.A5, isa.A5, isa.S3)
	for _, off := range cellOffs {
		b.ADDI(isa.A3, isa.A5, off)
		b.LI(isa.T9, hogBins)
		devrt.EmitLoop(b, t, isa.T9, 0, 1, func(int) {
			emitLoadInc(b, t, isa.LW, isa.A4, isa.A3, 4)
			blockAcc.Mac(b, isa.A4, isa.A4)
		})
	}
	blockAcc.Read(b, isa.S5, isa.S6)
	b.SRLI(isa.T5, isa.S5, 24)
	b.SLLI(isa.T6, isa.S6, 8)
	b.OR(isa.A0, isa.T5, isa.T6)
	b.JAL("__sqrt32")
	b.ADDI(isa.S7, isa.RV, 1)
	// divide and store the 36 values
	for _, off := range cellOffs {
		b.ADDI(isa.A3, isa.A5, off)
		b.LI(isa.T9, hogBins)
		devrt.EmitLoop(b, t, isa.T9, 0, 1, func(int) {
			emitLoadInc(b, t, isa.LW, isa.A4, isa.A3, 4)
			b.DIV(isa.A4, isa.A4, isa.S7)
			emitStoreInc(b, t, isa.SW, isa.S8, isa.A4, 4)
		})
	}
	b.ADDI(isa.S4, isa.S4, 1)
	b.SFI(isa.SFLTSI, isa.S4, p.bw)
	b.BF(bcLoop)
	b.ADDI(isa.S0, isa.S0, 1)
	b.SF(isa.SFLTS, isa.S0, isa.S2)
	b.BF(brLoop)
	b.Label(bDone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7, isa.S8)

	devrt.EmitSqrt32Fn(b)

	return b.Build(asm.Layout{})
}
