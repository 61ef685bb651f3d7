package kernels

import (
	"fmt"
	"math/rand"

	"hetsim/internal/asm"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
)

// BranchyOpts selects which control-flow features a generated branchy
// program may use. Both must stay off for targets without the matching
// hardware (HWLoop: PULP only; Barriers: needs the cluster event unit).
type BranchyOpts struct {
	HWLoop   bool // nested LPSETUP hardware loops
	Barriers bool // barrier-separated per-core phases (solo runs)
	// Scale multiplies every loop trip count (0 and 1 mean unscaled).
	// The differentials use the short mix — correctness does not need
	// trip volume — while the throughput benches scale trips up so the
	// cycle budget is dominated by hot loop iterations, the regime the
	// paper's kernel inner loops (conv/matmul/FFT) actually run in.
	Scale int32
}

// BranchyProgram generates a terminating branch/loop-dominated program —
// the adversarial counterpart of the straight-line-heavy randomized family
// in the block differentials. It stresses what fused execution chases:
// counted backward-branch loops, taken-branch chains inside loop bodies,
// nested hardware loops, and (with Barriers) per-core skewed phases that
// park early finishers at a barrier so the last core runs inside a solo
// window. Memory traffic is sparse,
// aligned, and confined to the first 4 KiB of TCDM; every loop trip count
// comes from an immediate, never from memory, so the program halts even on
// a dirty TCDM image (benches reuse one cluster across runs).
//
// Register map: r1 TCDM base, r2..r9 random data, r10/r12 loop counters,
// r11 core ID, r13 scratch, r14 barrier address, r15 team size.
func BranchyProgram(seed int64, o BranchyOpts) *asm.Program {
	r := rand.New(rand.NewSource(seed))
	var text []isa.Inst
	emit := func(op isa.Op, rd, ra, rb isa.Reg, imm int32) {
		text = append(text, isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb, Imm: imm})
	}
	reg := func() isa.Reg { return isa.Reg(2 + r.Intn(8)) } // r2..r9
	scale := o.Scale
	if scale < 1 {
		scale = 1
	}
	trips := func(t int32) int32 { return t * scale }

	alu := func() {
		switch r.Intn(3) {
		case 0:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL}
			emit(ops[r.Intn(len(ops))], reg(), reg(), reg(), 0)
		case 1:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(1<<12))
		default:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(32))
		}
	}
	loadStore := func() {
		if r.Intn(2) == 0 {
			off := r.Int31n(1024) * 4
			emit(isa.LW, reg(), 1, 0, off)
		} else {
			off := r.Int31n(1024) * 4
			emit(isa.SW, 0, 1, reg(), off)
		}
	}
	// countedLoop emits `r10 = trips(+id*skew); body; r10--; bnf back`:
	// the backward branch is taken trips-1 times, so its edge counter
	// crosses the hot threshold and the loop body chains into a trace.
	countedLoop := func(trips int32, skew int32, body func()) {
		emit(isa.MOVHI, 10, 0, 0, 0)
		emit(isa.ORIL, 10, 0, 0, trips)
		if skew > 0 { // per-core trip skew: r10 += coreID*skew
			emit(isa.MOVHI, 13, 0, 0, 0)
			emit(isa.ORIL, 13, 0, 0, skew)
			emit(isa.MUL, 13, 11, 13, 0)
			emit(isa.ADD, 10, 10, 13, 0)
		}
		top := int32(len(text))
		body()
		emit(isa.ADDI, 10, 10, 0, -1)
		emit(isa.SFEQI, 0, 10, 0, 0)
		// BF/BNF target = pc + 4 + imm*4: branch back to the loop top.
		emit(isa.BNF, 0, 0, 0, top-int32(len(text))-1)
	}

	// Prologue: TCDM base, random data registers, core ID, barrier regs.
	emit(isa.MOVHI, 1, 0, 0, int32(hw.TCDMBase>>16))
	emit(isa.ORIL, 1, 0, 0, int32(hw.TCDMBase&0xffff))
	for i := isa.Reg(2); i <= 9; i++ {
		emit(isa.MOVHI, i, 0, 0, r.Int31n(1<<16))
		emit(isa.ORIL, i, 0, 0, r.Int31n(1<<16))
	}
	emit(isa.MFSPR, 11, 0, 0, isa.SprCoreID)
	if o.Barriers {
		emit(isa.MOVHI, 14, 0, 0, int32((hw.EvtBase+hw.EvtBarrierArrive)>>16))
		emit(isa.ORIL, 14, 0, 0, int32((hw.EvtBase+hw.EvtBarrierArrive)&0xffff))
		emit(isa.MFSPR, 15, 0, 0, isa.SprNumCore)
	}

	for n := 6 + r.Intn(8); n > 0; n-- {
		switch pick := r.Intn(10); {
		case pick < 4: // hot backward-branch loop, plain body
			body := 1 + r.Intn(5)
			countedLoop(trips(12+r.Int31n(28)), 0, func() {
				for i := 0; i < body; i++ {
					if r.Intn(6) == 0 {
						loadStore()
					} else {
						alu()
					}
				}
			})
		case pick < 6: // loop body carrying a taken-branch chain
			links := 1 + r.Intn(3)
			countedLoop(trips(12+r.Int31n(20)), 0, func() {
				for i := 0; i < links; i++ {
					rr := reg()
					emit(isa.SFEQ, 0, rr, rr, 0) // always true
					k := int32(1 + r.Intn(2))
					emit(isa.BF, 0, 0, 0, k)
					for ; k > 0; k-- {
						alu()
					}
					alu()
				}
			})
		case pick < 8: // nested hardware loops (PULP targets only)
			if !o.HWLoop {
				alu()
				continue
			}
			inner := 1 + r.Intn(3)
			tail := 1 + r.Intn(2)
			emit(isa.MOVHI, 10, 0, 0, 0)
			emit(isa.ORIL, 10, 0, 0, trips(2+r.Int31n(5)))
			emit(isa.MOVHI, 12, 0, 0, 0)
			emit(isa.ORIL, 12, 0, 0, trips(2+r.Int31n(5)))
			// Outer body = inner LPSETUP + inner body + tail, so the inner
			// loop ends strictly before the outer loop end.
			emit(isa.LPSETUP, 0, 10, 0, int32(1+inner+tail))
			emit(isa.LPSETUP, 1, 12, 0, int32(inner))
			for i := 0; i < inner; i++ {
				alu()
			}
			for i := 0; i < tail; i++ {
				alu()
			}
		case pick < 9 && o.Barriers: // barrier-separated solo-run phase
			// Per-core skewed trip counts: low-ID cores finish first,
			// arrive, and sleep; the last core runs its loop tail as the
			// only awake core — a solo run that ends at the barrier.
			countedLoop(trips(8+r.Int31n(12)), trips(6+r.Int31n(10)), func() {
				for i := 0; i < 1+r.Intn(3); i++ {
					alu()
				}
			})
			emit(isa.SW, 0, 14, 15, 0)
		default:
			if r.Intn(2) == 0 {
				loadStore()
			} else {
				alu()
			}
		}
	}
	if o.Barriers { // close with a full barrier so no core outruns TRAP
		emit(isa.SW, 0, 14, 15, 0)
	}
	emit(isa.TRAP, 0, 0, 0, 0)
	return &asm.Program{
		Name:     fmt.Sprintf("branchy-%d", seed),
		Entry:    hw.TextBase,
		TextBase: hw.TextBase,
		Text:     text,
	}
}
