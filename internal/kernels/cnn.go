package kernels

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/devrt"
	"hetsim/internal/fixed"
	"hetsim/internal/isa"
)

// Convolutional Neural Network inference in the style of the CConvNet
// library the paper extends (Table I rows 8-9): a LeNet-like topology on
// Q15 fixed-point data —
//
//	conv1 5x5 (1 -> M1 maps) + activation
//	avg-pool 2x2
//	conv2 5x5 (M1 -> M2 maps) + activation
//	avg-pool 2x2
//	fully-connected -> 10 scores (int32)
//
// The exact variant shifts every product back to Q15 and applies a tanh
// lookup table — the fixed-point regime that cannot use MAC or SIMD. The
// "approx" variant mirrors the paper's approximated CNN: Q12 weights with
// raw accumulation (one shift per output instead of per product) and a
// linear clamp activation — which both removes work (fewer RISC ops) and
// re-enables the 2-way SIMD dot product on OR10N.

type cnnParams struct {
	approx bool
	w      int32 // input image is w x w
	m1, m2 int32 // feature maps per conv layer
	out1   int32 // conv1 output edge (w-4)
	p1     int32 // pooled (out1/2)
	out2   int32 // conv2 output edge (p1-4)
	p2     int32 // pooled (out2/2)
	nOut   int32 // fc outputs
}

const (
	cnnQ       = 15
	cnnQApprox = 12
	cnnActClip = 16384 // +-0.5 in Q15, the approx linear activation bound
)

func cnnTanhLUT() *fixed.LUT { return fixed.NewTanhLUT(fixed.Q15, fixed.Q15, 4.0, 6) }

// CNN returns the paper-sized CNN (32x32 input, 4+8 maps, 10 classes).
func CNN(approx bool) *Instance { return CNNSized(approx, 32, 4, 8) }

// CNNSized returns a CNN instance with custom geometry (for fast tests).
func CNNSized(approx bool, w, m1, m2 int) *Instance {
	p := cnnParams{approx: approx, w: int32(w), m1: int32(m1), m2: int32(m2), nOut: 10}
	p.out1 = p.w - 4
	p.p1 = p.out1 / 2
	p.out2 = p.p1 - 4
	p.p2 = p.out2 / 2
	if p.out1%2 != 0 || p.out2 <= 0 || p.out2%2 != 0 {
		panic(fmt.Sprintf("kernels: cnn geometry does not pool evenly from %d", w))
	}
	name := "cnn"
	desc := "Convolutional Neural Network"
	if approx {
		name = "cnn (approx)"
		desc = "Convolutional Neural Network (approximated)"
	}
	model := cnnModel(p)
	return &Instance{
		Name:       name,
		Field:      "learning / vision",
		Desc:       desc,
		ParamDesc:  fmt.Sprintf("%dx%d, %d+%d maps", w, w, m1, m2),
		MaxThreads: 4,
		inLen:      uint32(2 * p.w * p.w),
		outLen:     uint32(4 * p.nOut),
		args:       [4]uint32{uint32(w), uint32(m1), uint32(m2)},
		build: func(t isa.Target, mode devrt.Mode) (*asm.Program, error) {
			return buildCNN(t, mode, p, model)
		},
		genInput: func(seed uint64) []byte { return cnnInput(p, seed) },
		golden:   func(in []byte) []byte { return cnnGolden(p, model, in) },
	}
}

type cnnModelData struct {
	w1  []int16 // m1 x 25
	b1  []int32
	w2  []int16 // m2 x m1 x 25
	b2  []int32
	wfc []int16 // nOut x (m2*p2*p2)
	bfc []int32
	lut *fixed.LUT
}

func cnnModel(p cnnParams) cnnModelData {
	rng := newRNG(0x636e6e) // "cnn"
	wBound := int32(8192)   // 0.25 in Q15
	fcBound := int32(8192)
	if p.approx {
		wBound = 1024 // 0.25 in Q12
		fcBound = 512
	}
	m := cnnModelData{lut: cnnTanhLUT()}
	m.w1 = make([]int16, p.m1*25)
	for i := range m.w1 {
		m.w1[i] = rng.i16(wBound)
	}
	m.b1 = make([]int32, p.m1)
	for i := range m.b1 {
		m.b1[i] = rng.i32(2000)
	}
	m.w2 = make([]int16, p.m2*p.m1*25)
	for i := range m.w2 {
		m.w2[i] = rng.i16(wBound)
	}
	m.b2 = make([]int32, p.m2)
	for i := range m.b2 {
		m.b2[i] = rng.i32(2000)
	}
	m.wfc = make([]int16, p.nOut*p.m2*p.p2*p.p2)
	for i := range m.wfc {
		m.wfc[i] = rng.i16(fcBound)
	}
	m.bfc = make([]int32, p.nOut)
	for i := range m.bfc {
		m.bfc[i] = rng.i32(2000)
	}
	return m
}

func cnnInput(p cnnParams, seed uint64) []byte {
	rng := newRNG(seed ^ 0x696d67) // "img"
	out := make([]byte, 2*p.w*p.w)
	for i := int32(0); i < p.w*p.w; i++ {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(rng.i16(32000)))
	}
	return out
}

// --- golden model -------------------------------------------------------

func (p cnnParams) act(m cnnModelData, acc int32) int32 {
	if p.approx {
		v := acc >> cnnQApprox
		if v > cnnActClip {
			v = cnnActClip
		}
		if v < -cnnActClip {
			v = -cnnActClip
		}
		return v
	}
	return m.lut.EvalOdd(acc)
}

func cnnGolden(p cnnParams, m cnnModelData, in []byte) []byte {
	img := make([]int32, p.w*p.w)
	for i := range img {
		img[i] = int32(int16(binary.LittleEndian.Uint16(in[2*i:])))
	}
	prod := func(w, x int32) int32 {
		if p.approx {
			return w * x
		}
		return (w * x) >> cnnQ
	}
	conv := func(src []int32, srcW, inMaps int32, wgt []int16, bias []int32, outMaps, outW int32) []int32 {
		dst := make([]int32, outMaps*outW*outW)
		for om := int32(0); om < outMaps; om++ {
			for r := int32(0); r < outW; r++ {
				for c := int32(0); c < outW; c++ {
					acc := bias[om]
					for im := int32(0); im < inMaps; im++ {
						for kr := int32(0); kr < 5; kr++ {
							for kc := int32(0); kc < 5; kc++ {
								x := src[im*srcW*srcW+(r+kr)*srcW+(c+kc)]
								w := int32(wgt[om*inMaps*25+im*25+kr*5+kc])
								acc += prod(w, x)
							}
						}
					}
					dst[om*outW*outW+r*outW+c] = p.act(m, acc)
				}
			}
		}
		return dst
	}
	pool := func(src []int32, maps, srcW int32) []int32 {
		oW := srcW / 2
		dst := make([]int32, maps*oW*oW)
		for mi := int32(0); mi < maps; mi++ {
			for r := int32(0); r < oW; r++ {
				for c := int32(0); c < oW; c++ {
					s := src[mi*srcW*srcW+(2*r)*srcW+2*c] +
						src[mi*srcW*srcW+(2*r)*srcW+2*c+1] +
						src[mi*srcW*srcW+(2*r+1)*srcW+2*c] +
						src[mi*srcW*srcW+(2*r+1)*srcW+2*c+1]
					dst[mi*oW*oW+r*oW+c] = s >> 2
				}
			}
		}
		return dst
	}
	f1 := conv(img, p.w, 1, m.w1, m.b1, p.m1, p.out1)
	q1 := pool(f1, p.m1, p.out1)
	f2 := conv(q1, p.p1, p.m1, m.w2, m.b2, p.m2, p.out2)
	q2 := pool(f2, p.m2, p.out2)
	// Fully connected.
	out := make([]byte, 4*p.nOut)
	nIn := p.m2 * p.p2 * p.p2
	for o := int32(0); o < p.nOut; o++ {
		acc := m.bfc[o]
		for i := int32(0); i < nIn; i++ {
			acc += prod(int32(m.wfc[o*nIn+i]), q2[i])
		}
		if p.approx {
			acc >>= cnnQApprox
		}
		binary.LittleEndian.PutUint32(out[4*o:], uint32(acc))
	}
	return out
}

// --- device code ---------------------------------------------------------

func buildCNN(t isa.Target, mode devrt.Mode, p cnnParams, m cnnModelData) (*asm.Program, error) {
	b := asm.NewBuilder("cnn")
	devrt.EmitCRT0(b, mode)

	b.Halves("cnn_w1", m.w1)
	b.Words("cnn_b1", m.b1)
	b.Halves("cnn_w2", m.w2)
	b.Words("cnn_b2", m.b2)
	b.Halves("cnn_wfc", m.wfc)
	b.Words("cnn_bfc", m.bfc)
	if !p.approx {
		b.Data("cnn_tanh", m.lut.Bytes(), 4)
	}
	b.Space("cnn_f1", uint32(2*p.m1*p.out1*p.out1), 4)
	b.Space("cnn_p1", uint32(2*p.m1*p.p1*p.p1), 4)
	b.Space("cnn_f2", uint32(2*p.m2*p.out2*p.out2), 4)
	b.Space("cnn_p2", uint32(2*p.m2*p.p2*p.p2), 4)

	b.Label("main")
	devrt.EmitPrologue(b)
	devrt.EmitParallel(b, "cnn_conv1")
	devrt.EmitParallel(b, "cnn_pool1")
	devrt.EmitParallel(b, "cnn_conv2")
	devrt.EmitParallel(b, "cnn_pool2")
	devrt.EmitParallel(b, "cnn_fc")
	devrt.EmitEpilogue(b)

	// Activation helper emitted inline after each conv output.
	emitAct := func(acc isa.Reg) {
		if p.approx {
			b.SRAI(acc, acc, cnnQApprox)
			emitClamp(b, t, acc, isa.T9, -cnnActClip, cnnActClip)
			return
		}
		// tanh via odd-symmetric LUT: sign-split around emitLUTEval.
		neg := b.Uniq("act_neg")
		join := b.Uniq("act_join")
		b.SFI(isa.SFLTSI, acc, 0)
		b.BF(neg)
		emitLUTEval(b, t, acc, isa.S7, isa.T7, isa.T8, isa.T9, m.lut.Span, int32(m.lut.LogStep))
		b.J(join)
		b.Label(neg)
		b.SUB(acc, isa.R0, acc)
		emitLUTEval(b, t, acc, isa.S7, isa.T7, isa.T8, isa.T9, m.lut.Span, int32(m.lut.LogStep))
		b.SUB(acc, isa.R0, acc)
		b.Label(join)
	}

	// emitConv emits one conv-layer body: work items are (map, row) pairs,
	// flattened and chunked across the team.
	emitConv := func(label string, src string, srcIsInput bool, srcW, inMaps int32,
		wSym, bSym, dstSym string, outMaps, outW int32) {
		b.Label(label)
		devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)
		emitGlob(b, globCtx{base: isa.A0, in: isa.A1, out: isa.A2})
		if !srcIsInput {
			b.LA(isa.A1, src)
		}
		if !p.approx {
			b.LA(isa.S7, "cnn_tanh")
		}
		total := outMaps * outW
		devrt.EmitChunk(b, total, isa.S0 /*lo*/, isa.S2 /*hi*/)
		noWork := b.Uniq(label + "_none")
		b.SF(isa.SFGES, isa.S0, isa.S2)
		b.BF(noWork)
		rowLoop := b.Uniq(label + "_row")
		b.Label(rowLoop)
		// m = w / outW ; r = w % outW
		b.LI(isa.T5, outW)
		b.DIVU(isa.T6, isa.S0, isa.T5) // m
		b.MUL(isa.T7, isa.T6, isa.T5)
		b.SUB(isa.T7, isa.S0, isa.T7) // r
		// S3 = weight base for map m; S4 = bias value
		b.LA(isa.S3, wSym)
		b.LI(isa.T8, inMaps*25*2)
		b.MUL(isa.T9, isa.T6, isa.T8)
		b.ADD(isa.S3, isa.S3, isa.T9)
		b.LA(isa.S4, bSym)
		b.SLLI(isa.T9, isa.T6, 2)
		b.ADD(isa.S4, isa.S4, isa.T9)
		b.LW(isa.S4, isa.S4, 0)
		// A3 = src + r*srcW*2 (sliding window base; +2 per column)
		b.LI(isa.T8, srcW*2)
		b.MUL(isa.T9, isa.T7, isa.T8)
		b.ADD(isa.A3, isa.A1, isa.T9)
		// S1 = dst + (m*outW*outW + r*outW)*2
		b.LA(isa.S1, dstSym)
		b.LI(isa.T8, outW*outW*2)
		b.MUL(isa.T9, isa.T6, isa.T8)
		b.ADD(isa.S1, isa.S1, isa.T9)
		b.LI(isa.T8, outW*2)
		b.MUL(isa.T9, isa.T7, isa.T8)
		b.ADD(isa.S1, isa.S1, isa.T9)

		b.LI(isa.A5, outW) // column counter
		devrt.EmitLoop(b, t, isa.A5, 1, 1, func(int) {
			b.MOV(isa.T6, isa.S4) // acc = bias
			for im := int32(0); im < inMaps; im++ {
				for kr := int32(0); kr < 5; kr++ {
					xOff := (im*srcW*srcW + kr*srcW) * 2
					wOff := (im*25 + kr*5) * 2
					if p.approx && t.Feat.SIMD {
						// Two dotp2h pairs + one scalar tap per row.
						// x loads may be unaligned: OR10N supports that.
						b.LW(isa.T7, isa.A3, xOff)
						b.LW(isa.T8, isa.S3, wOff)
						b.DOTP2H(isa.T6, isa.T7, isa.T8)
						b.LW(isa.T7, isa.A3, xOff+4)
						b.LW(isa.T8, isa.S3, wOff+4)
						b.DOTP2H(isa.T6, isa.T7, isa.T8)
						b.Load(isa.LHS, isa.T7, isa.A3, xOff+8)
						b.Load(isa.LHS, isa.T8, isa.S3, wOff+8)
						if t.Feat.MacRR {
							b.MAC(isa.T6, isa.T7, isa.T8)
						} else {
							b.MUL(isa.T7, isa.T7, isa.T8)
							b.ADD(isa.T6, isa.T6, isa.T7)
						}
						continue
					}
					for kc := int32(0); kc < 5; kc++ {
						b.Load(isa.LHS, isa.T7, isa.A3, xOff+kc*2)
						b.Load(isa.LHS, isa.T8, isa.S3, wOff+kc*2)
						if p.approx && t.Feat.MacRR {
							b.MAC(isa.T6, isa.T7, isa.T8)
						} else {
							b.MUL(isa.T7, isa.T7, isa.T8)
							if !p.approx {
								b.SRAI(isa.T7, isa.T7, cnnQ)
							}
							b.ADD(isa.T6, isa.T6, isa.T7)
						}
					}
				}
			}
			emitAct(isa.T6)
			emitStoreInc(b, t, isa.SH, isa.S1, isa.T6, 2)
			b.ADDI(isa.A3, isa.A3, 2)
		})
		b.ADDI(isa.S0, isa.S0, 1)
		b.SF(isa.SFLTS, isa.S0, isa.S2)
		b.BF(rowLoop)
		b.Label(noWork)
		devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7)
	}

	emitConv("cnn_conv1", "", true, p.w, 1, "cnn_w1", "cnn_b1", "cnn_f1", p.m1, p.out1)
	emitConv("cnn_conv2", "cnn_p1", false, p.p1, p.m1, "cnn_w2", "cnn_b2", "cnn_f2", p.m2, p.out2)

	// emitPool emits an average-pool body over (map, row) work items.
	emitPool := func(label, srcSym, dstSym string, maps, srcW int32) {
		oW := srcW / 2
		b.Label(label)
		devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2)
		total := maps * oW
		devrt.EmitChunk(b, total, isa.S0, isa.S2)
		noWork := b.Uniq(label + "_none")
		b.SF(isa.SFGES, isa.S0, isa.S2)
		b.BF(noWork)
		rowLoop := b.Uniq(label + "_row")
		b.Label(rowLoop)
		// m = w / oW ; r = w % oW
		b.LI(isa.T5, oW)
		b.DIVU(isa.T6, isa.S0, isa.T5)
		b.MUL(isa.T7, isa.T6, isa.T5)
		b.SUB(isa.T7, isa.S0, isa.T7)
		// A3 = src + (m*srcW*srcW + 2r*srcW)*2 ; S1 = dst + (m*oW*oW + r*oW)*2
		b.LA(isa.A3, srcSym)
		b.LI(isa.T8, srcW*srcW*2)
		b.MUL(isa.T9, isa.T6, isa.T8)
		b.ADD(isa.A3, isa.A3, isa.T9)
		b.LI(isa.T8, srcW*4)
		b.MUL(isa.T9, isa.T7, isa.T8)
		b.ADD(isa.A3, isa.A3, isa.T9)
		b.LA(isa.S1, dstSym)
		b.LI(isa.T8, oW*oW*2)
		b.MUL(isa.T9, isa.T6, isa.T8)
		b.ADD(isa.S1, isa.S1, isa.T9)
		b.LI(isa.T8, oW*2)
		b.MUL(isa.T9, isa.T7, isa.T8)
		b.ADD(isa.S1, isa.S1, isa.T9)
		b.LI(isa.A5, oW)
		devrt.EmitLoop(b, t, isa.A5, 1, 1, func(int) {
			b.Load(isa.LHS, isa.T6, isa.A3, 0)
			b.Load(isa.LHS, isa.T7, isa.A3, 2)
			b.ADD(isa.T6, isa.T6, isa.T7)
			b.Load(isa.LHS, isa.T7, isa.A3, srcW*2)
			b.ADD(isa.T6, isa.T6, isa.T7)
			b.Load(isa.LHS, isa.T7, isa.A3, srcW*2+2)
			b.ADD(isa.T6, isa.T6, isa.T7)
			b.SRAI(isa.T6, isa.T6, 2)
			emitStoreInc(b, t, isa.SH, isa.S1, isa.T6, 2)
			b.ADDI(isa.A3, isa.A3, 4)
		})
		b.ADDI(isa.S0, isa.S0, 1)
		b.SF(isa.SFLTS, isa.S0, isa.S2)
		b.BF(rowLoop)
		b.Label(noWork)
		devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2)
	}

	emitPool("cnn_pool1", "cnn_f1", "cnn_p1", p.m1, p.out1)
	emitPool("cnn_pool2", "cnn_f2", "cnn_p2", p.m2, p.out2)

	// Fully-connected body: outputs chunked across the team.
	nIn := p.m2 * p.p2 * p.p2
	b.Label("cnn_fc")
	devrt.EmitPrologue(b, isa.S0, isa.S1, isa.S2, isa.S3)
	emitGlob(b, globCtx{base: isa.A0, out: isa.A2})
	devrt.EmitChunk(b, p.nOut, isa.S0, isa.S2)
	fcNone := b.Uniq("fc_none")
	b.SF(isa.SFGES, isa.S0, isa.S2)
	b.BF(fcNone)
	// S1 = out + lo*4 ; S3 = wfc + lo*nIn*2
	b.SLLI(isa.T5, isa.S0, 2)
	b.ADD(isa.S1, isa.A2, isa.T5)
	b.LA(isa.S3, "cnn_wfc")
	b.LI(isa.T5, nIn*2)
	b.MUL(isa.T6, isa.S0, isa.T5)
	b.ADD(isa.S3, isa.S3, isa.T6)
	fcLoop := b.Uniq("fc_loop")
	b.Label(fcLoop)
	// acc = bfc[o]
	b.LA(isa.T5, "cnn_bfc")
	b.SLLI(isa.T6, isa.S0, 2)
	b.ADD(isa.T5, isa.T5, isa.T6)
	b.LW(isa.T6, isa.T5, 0)
	b.LA(isa.A4, "cnn_p2")
	r := dotRegs{acc: isa.T6, aPtr: isa.S3, bPtr: isa.A4, cnt: isa.T7, x: isa.T8, y: isa.T9}
	if p.approx {
		if nIn%2 == 0 {
			emitDotShort(b, t, r, nIn, 0) // raw accumulation, SIMD-capable
		} else {
			emitDotFixed(b, t, r, nIn, 0, 0) // q=0: raw products
		}
		b.SRAI(isa.T6, isa.T6, cnnQApprox)
	} else {
		emitDotFixed(b, t, r, nIn, cnnQ, 0)
	}
	emitStoreInc(b, t, isa.SW, isa.S1, isa.T6, 4)
	b.ADDI(isa.S0, isa.S0, 1)
	b.SF(isa.SFLTS, isa.S0, isa.S2)
	b.BF(fcLoop)
	b.Label(fcNone)
	devrt.EmitEpilogue(b, isa.S0, isa.S1, isa.S2, isa.S3)

	return b.Build(asm.Layout{})
}
