package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/mem"
)

// flatEnv is a minimal environment: a flat memory with no arbitration, no
// event unit, fixed SPR values.
type flatEnv struct {
	mem        map[uint32]byte
	extra      int
	retryFirst int // deny the first N accesses (structural stall injection)
	wfeSleeps  bool
}

func newFlatEnv() *flatEnv { return &flatEnv{mem: make(map[uint32]byte)} }

func (e *flatEnv) Access(core int, store bool, addr, size, wdata uint32) (uint32, int, Status, error) {
	if e.retryFirst > 0 {
		e.retryFirst--
		return 0, 0, AccessRetry, nil
	}
	if store {
		for i := uint32(0); i < size; i++ {
			e.mem[addr+i] = byte(wdata >> (8 * i))
		}
		return 0, e.extra, AccessOK, nil
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		v |= uint32(e.mem[addr+i]) << (8 * i)
	}
	return v, e.extra, AccessOK, nil
}

func (e *flatEnv) WFE(core int) bool { return e.wfeSleeps }

func (e *flatEnv) SPR(core int, spr int32) uint32 {
	switch spr {
	case isa.SprCoreID:
		return uint32(core)
	case isa.SprNumCore:
		return 4
	}
	return 0
}

// runCore executes the program until halt or maxCycles, returning cycles.
func runCore(t *testing.T, c *Core, maxCycles uint64) uint64 {
	t.Helper()
	var cyc uint64
	for ; cyc < maxCycles; cyc++ {
		if c.Halted {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			return cyc
		}
		c.Step(cyc)
	}
	t.Fatalf("core did not halt in %d cycles (pc=%#x)", maxCycles, c.PC)
	return cyc
}

// runSolo drives the core the way the cluster's scheduler drives its only
// awake core: a solo run to the limit with its charges committed, then one
// stepped cycle for whatever stopped the run, repeated until the core
// halts. It returns the cycles taken and the number of Step calls.
func runSolo(t *testing.T, c *Core, maxCycles uint64) (cyc uint64, steps uint64) {
	t.Helper()
	for cyc < maxCycles {
		if c.Halted {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			return cyc, steps
		}
		cyc = c.RunSolo(cyc, maxCycles)
		c.Commit()
		if cyc == maxCycles {
			break
		}
		c.Step(cyc)
		cyc++
		steps++
	}
	t.Fatalf("core did not halt in %d cycles (pc=%#x)", maxCycles, c.PC)
	return cyc, steps
}

// checkFused fails unless a solo leg ran most of its instructions fused:
// a leg that fell back to stepping would call Step once per instruction.
func checkFused(t *testing.T, c *Core, steps uint64, leg string) {
	t.Helper()
	if steps >= c.Stats.Retired {
		t.Fatalf("%s: %d Step calls for %d retired instructions; the solo leg did not fuse", leg, steps, c.Stats.Retired)
	}
}

func newCore(env Env, tgt isa.Target, prog []isa.Inst) *Core {
	c := New(0, tgt, env)
	c.SetProgram(prog, 0x1000)
	c.Start(0x1000)
	return c
}

// --- Semantics oracle -----------------------------------------------------------

// refState is the independent oracle of the instruction semantics: the
// architectural state a data op can change, interpreted the
// straightforward way (lane loops, plain Go arithmetic). Both execution
// tiers run one switch (runFused in block.go), so the tier differentials
// cannot catch a wrong result there; this oracle can.
type refState struct {
	regs [32]int32
	acc  int64
	flag bool
}

func (s *refState) set(r isa.Reg, v int32) {
	if r != 0 {
		s.regs[r] = v
	}
}

// lanes applies f to each w-bit lane of a and b and packs the results,
// each truncated to its lane.
func lanes(a, b uint32, w uint, f func(x, y uint32) uint32) uint32 {
	mask := uint32(1)<<w - 1
	var out uint32
	for i := uint(0); i < 32; i += w {
		out |= f(a>>i&mask, b>>i&mask) & mask << i
	}
	return out
}

// step interprets one data op. It reports false for an op it has no arm
// for, which TestALUDifferential turns into a failure.
func (s *refState) step(in isa.Inst) bool {
	a, b := s.regs[in.Ra], s.regs[in.Rb]
	ua, ub := uint32(a), uint32(b)
	imm := in.Imm
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		s.set(in.Rd, a+b)
	case isa.SUB:
		s.set(in.Rd, a-b)
	case isa.AND:
		s.set(in.Rd, a&b)
	case isa.OR:
		s.set(in.Rd, a|b)
	case isa.XOR:
		s.set(in.Rd, a^b)
	case isa.SLL:
		s.set(in.Rd, a<<(ub&31))
	case isa.SRL:
		s.set(in.Rd, int32(ua>>(ub&31)))
	case isa.SRA:
		s.set(in.Rd, a>>(ub&31))
	case isa.MUL:
		s.set(in.Rd, a*b)
	case isa.DIV:
		switch {
		case b == 0 && a >= 0:
			s.set(in.Rd, math.MaxInt32)
		case b == 0:
			s.set(in.Rd, math.MinInt32)
		case a == math.MinInt32 && b == -1:
			s.set(in.Rd, math.MinInt32)
		default:
			s.set(in.Rd, a/b)
		}
	case isa.DIVU:
		if ub == 0 {
			s.set(in.Rd, -1)
		} else {
			s.set(in.Rd, int32(ua/ub))
		}
	case isa.MIN:
		s.set(in.Rd, min(a, b))
	case isa.MAX:
		s.set(in.Rd, max(a, b))
	case isa.MINU:
		s.set(in.Rd, int32(min(ua, ub)))
	case isa.MAXU:
		s.set(in.Rd, int32(max(ua, ub)))
	case isa.MAC:
		s.set(in.Rd, s.regs[in.Rd]+a*b)
	case isa.MSU:
		s.set(in.Rd, s.regs[in.Rd]-a*b)
	case isa.SEXTB:
		s.set(in.Rd, int32(int8(a)))
	case isa.SEXTH:
		s.set(in.Rd, int32(int16(a)))
	case isa.ADDI:
		s.set(in.Rd, a+imm)
	case isa.ANDI:
		s.set(in.Rd, int32(ua&uint32(imm)))
	case isa.ORI:
		s.set(in.Rd, int32(ua|uint32(imm)))
	case isa.XORI:
		s.set(in.Rd, int32(ua^uint32(imm)))
	case isa.SLLI:
		s.set(in.Rd, a<<(uint32(imm)&31))
	case isa.SRLI:
		s.set(in.Rd, int32(ua>>(uint32(imm)&31)))
	case isa.SRAI:
		s.set(in.Rd, a>>(uint32(imm)&31))
	case isa.MOVHI:
		s.set(in.Rd, imm<<16)
	case isa.ORIL:
		s.set(in.Rd, int32(uint32(s.regs[in.Rd])|uint32(imm)&0xffff))

	case isa.SFEQ:
		s.flag = a == b
	case isa.SFNE:
		s.flag = a != b
	case isa.SFLTS:
		s.flag = a < b
	case isa.SFLES:
		s.flag = a <= b
	case isa.SFGTS:
		s.flag = a > b
	case isa.SFGES:
		s.flag = a >= b
	case isa.SFLTU:
		s.flag = ua < ub
	case isa.SFLEU:
		s.flag = ua <= ub
	case isa.SFGTU:
		s.flag = ua > ub
	case isa.SFGEU:
		s.flag = ua >= ub
	case isa.SFEQI:
		s.flag = a == imm
	case isa.SFNEI:
		s.flag = a != imm
	case isa.SFLTSI:
		s.flag = a < imm
	case isa.SFLESI:
		s.flag = a <= imm
	case isa.SFGTSI:
		s.flag = a > imm
	case isa.SFGESI:
		s.flag = a >= imm
	case isa.SFLTUI:
		s.flag = ua < uint32(imm)
	case isa.SFGEUI:
		s.flag = ua >= uint32(imm)

	case isa.MACS:
		s.acc += int64(a) * int64(b)
	case isa.MACU:
		s.acc += int64(uint64(ua) * uint64(ub))
	case isa.MACCLR:
		s.acc = 0
	case isa.MACRDL:
		s.set(in.Rd, int32(s.acc))
	case isa.MACRDH:
		s.set(in.Rd, int32(s.acc>>32))

	case isa.DOTP4B:
		sum := s.regs[in.Rd]
		for i := 0; i < 4; i++ {
			sum += int32(int8(ua>>(8*i))) * int32(int8(ub>>(8*i)))
		}
		s.set(in.Rd, sum)
	case isa.DOTP2H:
		sum := s.regs[in.Rd]
		for i := 0; i < 2; i++ {
			sum += int32(int16(ua>>(16*i))) * int32(int16(ub>>(16*i)))
		}
		s.set(in.Rd, sum)
	case isa.ADD4B:
		s.set(in.Rd, int32(lanes(ua, ub, 8, func(x, y uint32) uint32 { return x + y })))
	case isa.SUB4B:
		s.set(in.Rd, int32(lanes(ua, ub, 8, func(x, y uint32) uint32 { return x - y })))
	case isa.ADD2H:
		s.set(in.Rd, int32(lanes(ua, ub, 16, func(x, y uint32) uint32 { return x + y })))
	case isa.SUB2H:
		s.set(in.Rd, int32(lanes(ua, ub, 16, func(x, y uint32) uint32 { return x - y })))
	case isa.SRA2H:
		s.set(in.Rd, int32(lanes(ua, 0, 16, func(x, _ uint32) uint32 { return uint32(int16(x) >> (ub & 15)) })))
	default:
		return false
	}
	return true
}

// oracleOps lists the ops the oracle must cover on a target: every op the
// target supports that is not a memory op, not control flow and does not
// break a fused run (TRAP, WFE and MFSPR execute in Step itself).
func oracleOps(tgt isa.Target) []isa.Op {
	var ops []isa.Op
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		m := Predecode([]isa.Inst{{Op: op}}, tgt)[0].Meta
		if m.Flags&(MetaIllegal|MetaMem|MetaFuseBreak) != 0 {
			continue
		}
		switch op.Format() {
		case isa.FmtB, isa.FmtJR, isa.FmtLP:
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

// oracleValues are the edge values half of each seeded register takes
// (the other half take random words), so divisions and sign-sensitive ops
// meet their edge cases.
var oracleValues = []int32{0, 1, -1, 2, -2, 7, math.MaxInt32, math.MinInt32, 0x7f, 0x80, 0x7fff, 0x8000}

// randInst draws a random instance of op with in-range operands. An
// R-format op reuses its first source a third of the time, and ADDI and
// the immediate compares read r0 with an immediate of -1, 0 or 1 a third
// of the time, so compares often see equal operands.
func randInst(rng *rand.Rand, op isa.Op) isa.Inst {
	in := isa.Inst{Op: op, Rd: isa.Reg(rng.Intn(32)), Ra: isa.Reg(rng.Intn(32)), Rb: isa.Reg(rng.Intn(32))}
	switch op.Format() {
	case isa.FmtR:
		if rng.Intn(3) == 0 {
			in.Rb = in.Ra
		}
	case isa.FmtI:
		switch op {
		case isa.ANDI, isa.ORI, isa.XORI:
			in.Imm = int32(rng.Intn(1 << 14))
		case isa.SLLI, isa.SRLI, isa.SRAI:
			in.Imm = int32(rng.Intn(32))
		default:
			if rng.Intn(3) == 0 {
				in.Ra, in.Imm = isa.R0, int32(rng.Intn(3))-1
			} else {
				in.Imm = int32(rng.Intn(1<<14)) - 1<<13
			}
		}
		in.Rb = 0
	case isa.FmtIH:
		in.Imm = int32(rng.Intn(1 << 16))
		in.Ra, in.Rb = 0, 0
	case isa.FmtN:
		in.Rd, in.Ra, in.Rb = 0, 0, 0
	}
	return in
}

// TestALUDifferential runs random straight-line programs of every data op
// a target supports on the core and on the oracle, and compares every
// register, the flag and the MAC accumulator. Each program ends with a
// compare, so the final flag checks one compare per trial. It runs on
// PULPFull (SIMD, MinMax, MacRR) and CortexM4 (Mac64), stepped and solo —
// the solo leg driven through RunSolo as the cluster drives a lone core —
// and fails first if any op the core executes has no oracle arm.
func TestALUDifferential(t *testing.T) {
	for _, tgt := range []isa.Target{isa.PULPFull, isa.CortexM4} {
		ops := oracleOps(tgt)
		var compares []isa.Op
		for _, op := range ops {
			if !(&refState{}).step(isa.Inst{Op: op}) {
				t.Errorf("%s: %v has no oracle arm", tgt.Name, op)
			}
			if op.IsCompare() {
				compares = append(compares, op)
			}
		}
		if t.Failed() {
			return
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 300; trial++ {
			ref := &refState{}
			for r := 1; r < 32; r++ {
				if rng.Intn(2) == 0 {
					ref.regs[r] = oracleValues[rng.Intn(len(oracleValues))]
				} else {
					ref.regs[r] = int32(rng.Uint32())
				}
			}
			init := ref.regs
			n := 5 + rng.Intn(60)
			prog := make([]isa.Inst, 0, n+2)
			for i := 0; i < n; i++ {
				prog = append(prog, randInst(rng, ops[rng.Intn(len(ops))]))
			}
			prog = append(prog, randInst(rng, compares[rng.Intn(len(compares))]))
			for _, in := range prog {
				ref.step(in)
			}
			prog = append(prog, isa.Inst{Op: isa.TRAP})

			for _, solo := range []bool{false, true} {
				c := newCore(newFlatEnv(), tgt, prog)
				for r, v := range init {
					c.Regs[r] = uint32(v)
				}
				if solo {
					_, steps := runSolo(t, c, 10_000)
					checkFused(t, c, steps, fmt.Sprintf("%s trial %d", tgt.Name, trial))
				} else {
					runCore(t, c, 10_000)
				}
				for r := 0; r < 32; r++ {
					if int32(c.Regs[r]) != ref.regs[r] {
						t.Fatalf("%s trial %d solo=%v: r%d = %d, ref %d", tgt.Name, trial, solo, r, int32(c.Regs[r]), ref.regs[r])
					}
				}
				if c.Flag != ref.flag || c.Acc != ref.acc {
					t.Fatalf("%s trial %d solo=%v: flag %v acc %d, ref %v %d (last %v)",
						tgt.Name, trial, solo, c.Flag, c.Acc, ref.flag, ref.acc, prog[len(prog)-2])
				}
			}
		}
	}
}

// --- Timing unit tests ------------------------------------------------------------

func TestStraightLineTiming(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.ADDI, Rd: isa.A0, Imm: 1},
		{Op: isa.ADDI, Rd: isa.A1, Imm: 2},
		{Op: isa.ADDI, Rd: isa.A2, Imm: 3},
		{Op: isa.TRAP},
	}
	c := newCore(newFlatEnv(), isa.PULPFull, prog)
	if cyc := runCore(t, c, 100); cyc != 4 { // 3 ALU + trap
		t.Errorf("3 ALU ops took %d cycles", cyc)
	}
	if c.Stats.Retired != 4 || c.Stats.Active != 4 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestMultiCycleOpTiming(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.DIV, Rd: isa.A0, Ra: isa.A1, Rb: isa.A2},
		{Op: isa.TRAP},
	}
	c := newCore(newFlatEnv(), isa.PULPFull, prog)
	c.Regs[isa.A1], c.Regs[isa.A2] = 100, 7
	if cyc := runCore(t, c, 100); cyc != 33 { // 32 DIV + trap
		t.Errorf("DIV took %d cycles, want 33", cyc)
	}
}

func TestBranchTakenPenalty(t *testing.T) {
	// taken BF on M4: 1 (sf) + 1 (bf) + 2 (penalty) + 1 (trap reached after)
	prog := []isa.Inst{
		{Op: isa.SFEQI, Ra: isa.R0, Imm: 0}, // flag = true
		{Op: isa.BF, Imm: 0},                // branch to next (taken)
		{Op: isa.TRAP},
	}
	m4 := newCore(newFlatEnv(), isa.CortexM4, prog)
	cycM4 := runCore(t, m4, 100)
	pulp := newCore(newFlatEnv(), isa.PULPFull, prog)
	cycPULP := runCore(t, pulp, 100)
	if cycM4-cycPULP != 1 {
		t.Errorf("M4 taken-branch penalty delta = %d (m4=%d pulp=%d), want 1",
			cycM4-cycPULP, cycM4, cycPULP)
	}
	// Not-taken branch costs no penalty on either.
	prog[0].Imm = 1 // flag = false
	m4n := newCore(newFlatEnv(), isa.CortexM4, prog)
	if cyc := runCore(t, m4n, 100); cyc != 3 { // sf + bf + trap
		t.Errorf("not-taken branch run took %d cycles", cyc)
	}
}

func TestLoadUseBubble(t *testing.T) {
	env := newFlatEnv()
	env.mem[0x100] = 7
	dep := []isa.Inst{
		{Op: isa.LW, Rd: isa.A0, Ra: isa.R0, Imm: 0x100},
		{Op: isa.ADD, Rd: isa.A1, Ra: isa.A0, Rb: isa.A0}, // immediate use
		{Op: isa.TRAP},
	}
	indep := []isa.Inst{
		{Op: isa.LW, Rd: isa.A0, Ra: isa.R0, Imm: 0x100},
		{Op: isa.ADD, Rd: isa.A1, Ra: isa.A2, Rb: isa.A2}, // no dependence
		{Op: isa.TRAP},
	}
	cDep := newCore(env, isa.CortexM4, dep)
	cycDep := runCore(t, cDep, 100)
	cInd := newCore(env, isa.CortexM4, indep)
	cycInd := runCore(t, cInd, 100)
	if cycDep != cycInd+1 {
		t.Errorf("load-use bubble: dep=%d indep=%d", cycDep, cycInd)
	}
	// OR10N (single-cycle TCDM) has no bubble.
	pDep := newCore(env, isa.PULPFull, dep)
	pInd := newCore(env, isa.PULPFull, indep)
	if runCore(t, pDep, 100) != runCore(t, pInd, 100) {
		t.Error("OR10N should not pay a load-use bubble")
	}
}

func TestAccessRetryStalls(t *testing.T) {
	env := newFlatEnv()
	env.retryFirst = 3
	prog := []isa.Inst{
		{Op: isa.LW, Rd: isa.A0, Ra: isa.R0, Imm: 0x40},
		{Op: isa.TRAP},
	}
	c := newCore(env, isa.PULPFull, prog)
	cyc := runCore(t, c, 100)
	if cyc != 5 { // 3 denied + 1 granted + trap
		t.Errorf("retried load took %d cycles, want 5", cyc)
	}
	if c.Stats.Stall != 3 {
		t.Errorf("stall cycles = %d, want 3", c.Stats.Stall)
	}
}

func TestWFESleepAndWake(t *testing.T) {
	env := newFlatEnv()
	env.wfeSleeps = true
	prog := []isa.Inst{
		{Op: isa.WFE},
		{Op: isa.ADDI, Rd: isa.A0, Imm: 5},
		{Op: isa.TRAP},
	}
	c := newCore(env, isa.PULPFull, prog)
	for cyc := uint64(0); cyc < 10; cyc++ {
		c.Step(cyc)
	}
	if !c.Sleeping() || c.Asleep() != SleepEvent {
		t.Fatal("core should be asleep in WFE")
	}
	c.Wake(10)
	for cyc := uint64(10); cyc < 40 && !c.Halted; cyc++ {
		c.Step(cyc)
	}
	if !c.Halted || c.Regs[isa.A0] != 5 {
		t.Fatal("core did not resume after wake")
	}
	if c.Stats.Sleep == 0 {
		t.Error("sleep cycles not accounted")
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	prog := []isa.Inst{{Op: isa.DOTP4B, Rd: isa.A0, Ra: isa.A1, Rb: isa.A2}}
	c := newCore(newFlatEnv(), isa.CortexM4, prog)
	for cyc := uint64(0); cyc < 5 && !c.Halted; cyc++ {
		c.Step(cyc)
	}
	if c.Err == nil {
		t.Fatal("SIMD on M4 must fault")
	}
}

func TestFetchOutsideTextFaults(t *testing.T) {
	prog := []isa.Inst{{Op: isa.JR, Ra: isa.A0}} // A0 = 0 -> far away
	c := newCore(newFlatEnv(), isa.PULPFull, prog)
	for cyc := uint64(0); cyc < 10 && !c.Halted; cyc++ {
		c.Step(cyc)
	}
	if c.Err == nil {
		t.Fatal("jump outside text must fault")
	}
}

func TestHWLoopSemantics(t *testing.T) {
	// lp.setup 0, count in A0, body of 2 instructions.
	prog := []isa.Inst{
		{Op: isa.LPSETUP, Rd: 0, Ra: isa.A0, Imm: 2},
		{Op: isa.ADDI, Rd: isa.A1, Ra: isa.A1, Imm: 1},
		{Op: isa.ADDI, Rd: isa.A2, Ra: isa.A2, Imm: 10},
		{Op: isa.TRAP},
	}
	c := newCore(newFlatEnv(), isa.PULPFull, prog)
	c.Regs[isa.A0] = 5
	cyc := runCore(t, c, 100)
	if c.Regs[isa.A1] != 5 || c.Regs[isa.A2] != 50 {
		t.Fatalf("hwloop executed %d/%d times", c.Regs[isa.A1], c.Regs[isa.A2]/10)
	}
	// Zero-overhead: setup + 2*count + trap.
	if cyc != 12 {
		t.Errorf("hwloop of 5x2 took %d cycles, want 12", cyc)
	}
}

func TestReadsRegCoverage(t *testing.T) {
	cases := []struct {
		in   isa.Inst
		r    isa.Reg
		want bool
	}{
		{isa.Inst{Op: isa.ADD, Rd: 3, Ra: 4, Rb: 5}, 4, true},
		{isa.Inst{Op: isa.ADD, Rd: 3, Ra: 4, Rb: 5}, 3, false},
		{isa.Inst{Op: isa.MAC, Rd: 3, Ra: 4, Rb: 5}, 3, true}, // accumulator reads rd
		{isa.Inst{Op: isa.DOTP2H, Rd: 3, Ra: 4, Rb: 5}, 3, true},
		{isa.Inst{Op: isa.ORIL, Rd: 3, Imm: 1}, 3, true},
		{isa.Inst{Op: isa.MOVHI, Rd: 3, Imm: 1}, 3, false},
		{isa.Inst{Op: isa.SW, Ra: 6, Rb: 7}, 7, true},
		{isa.Inst{Op: isa.SW, Ra: 6, Rb: 7}, 6, true},
		{isa.Inst{Op: isa.JR, Ra: 9}, 9, true},
		{isa.Inst{Op: isa.LPSETUP, Rd: 0, Ra: 8}, 8, true},
		{isa.Inst{Op: isa.ADD, Rd: 3, Ra: 0, Rb: 5}, 0, false}, // r0 never hazards
	}
	for _, c := range cases {
		if got := readMask(c.in)&(1<<c.r) != 0; got != c.want {
			t.Errorf("readMask(%v) bit r%d = %v", c.in, c.r, got)
		}
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	if divS(100, 0) != 0x7fffffff || divS(uint32(0x80000000), 0) != 0x80000000 {
		t.Error("signed div by zero")
	}
	if divS(0x80000000, 0xffffffff) != 0x80000000 {
		t.Error("INT_MIN / -1 must wrap to INT_MIN")
	}
	if divU(7, 0) != 0xffffffff {
		t.Error("unsigned div by zero")
	}
	if divS(uint32(0xfffffff9), 2) != uint32(0xfffffffd) { // -7/2 = -3 trunc
		t.Error("signed division truncation")
	}
}

// TestMemDifferential extends the differential fuzz to loads and stores in
// a pinned window: a byte-accurate reference memory checks every width,
// sign-extension and post-increment form under random interleaving with
// ALU traffic, on the stepped memory path (through Env) and on the fused
// one (RunSolo against a TCDM). r5 holds the window base and r4 the
// post-increment pointer; a post-increment load into its own pointer
// (Rd == Ra) increments the loaded value, which is then copied out and
// the pointer re-anchored.
func TestMemDifferential(t *testing.T) {
	const base = hw.TCDMBase + 0x400
	memOps := []isa.Op{isa.LBZ, isa.LBS, isa.LHZ, isa.LHS, isa.LW, isa.SB, isa.SH, isa.SW,
		isa.LBZP, isa.LBSP, isa.LHZP, isa.LHSP, isa.LWP, isa.SBP, isa.SHP, isa.SWP}
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.MUL, isa.ADDI, isa.MOVHI, isa.SLLI}
	rng := rand.New(rand.NewSource(2024))

	for trial := 0; trial < 100; trial++ {
		refMem := map[uint32]byte{}
		ref := &refState{}
		prog := []isa.Inst{
			{Op: isa.MOVHI, Rd: 5, Imm: int32(base >> 16)},
			{Op: isa.ORIL, Rd: 5, Imm: int32(base & 0xffff)},
			{Op: isa.ADDI, Rd: 4, Ra: 5, Imm: 128},
		}
		for _, in := range prog {
			ref.step(in)
		}
		emit := func(in isa.Inst) {
			prog = append(prog, in)
			ref.step(in)
		}

		n := 10 + rng.Intn(80)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				op := memOps[rng.Intn(len(memOps))]
				size := uint32(op.MemSize())
				rr := isa.Reg(6 + rng.Intn(8))
				in := isa.Inst{Op: op, Ra: 5}
				var addr uint32
				if op.IsPostIncr() {
					in.Ra = 4
					addr = uint32(ref.regs[4])
					if addr%size != 0 {
						continue // keep every access aligned
					}
					in.Imm = int32(rng.Intn(7)-3) * int32(size)
					if off := addr + uint32(in.Imm) - base; off > 252 {
						in.Imm = -in.Imm
					}
					if rng.Intn(6) == 0 {
						rr = 4 // Rd == Ra for a load, Rb == Ra for a store
					}
				} else {
					off := int32(uint32(rng.Intn(64)) * 4) // word-aligned, always legal
					if size == 2 && rng.Intn(2) == 0 {
						off += 2
					}
					if size == 1 {
						off += int32(rng.Intn(4))
					}
					in.Imm = off
					addr = base + uint32(off)
				}
				if op.IsStore() {
					in.Rb = rr
					v := uint32(ref.regs[rr])
					for b := uint32(0); b < size; b++ {
						refMem[addr+b] = byte(v >> (8 * b))
					}
				} else {
					in.Rd = rr
					var v uint32
					for b := uint32(0); b < size; b++ {
						v |= uint32(refMem[addr+b]) << (8 * b)
					}
					switch op {
					case isa.LBS, isa.LBSP:
						v = uint32(int32(int8(v)))
					case isa.LHS, isa.LHSP:
						v = uint32(int32(int16(v)))
					}
					ref.set(rr, int32(v))
				}
				if op.IsPostIncr() {
					ref.regs[4] += in.Imm
				}
				prog = append(prog, in)
				if op.IsLoad() && rr == 4 {
					emit(isa.Inst{Op: isa.OR, Rd: isa.Reg(6 + rng.Intn(8)), Ra: 4})
					emit(isa.Inst{Op: isa.ADDI, Rd: 4, Ra: 5, Imm: int32(rng.Intn(64)) * 4})
				}
				continue
			}
			op := aluOps[rng.Intn(len(aluOps))]
			in := isa.Inst{Op: op, Rd: isa.Reg(6 + rng.Intn(8)),
				Ra: isa.Reg(5 + rng.Intn(9)), Rb: isa.Reg(5 + rng.Intn(9))}
			switch op {
			case isa.ADDI:
				in.Imm = int32(rng.Intn(1<<14)) - 1<<13
			case isa.MOVHI:
				in.Imm = int32(rng.Intn(1 << 16))
			case isa.SLLI:
				in.Imm = int32(rng.Intn(32))
			}
			emit(in)
		}
		prog = append(prog, isa.Inst{Op: isa.TRAP})

		for _, solo := range []bool{false, true} {
			env := newFlatEnv()
			c := newCore(env, isa.PULPFull, prog)
			load := func(addr uint32) byte { return env.mem[addr] }
			if solo {
				tm := mem.NewTCDM(4096, 4)
				c.TCDM = tm
				load = func(addr uint32) byte { return byte(tm.Read(addr, 1)) }
				_, steps := runSolo(t, c, 100_000)
				checkFused(t, c, steps, fmt.Sprintf("trial %d", trial))
			} else {
				runCore(t, c, 100_000)
			}
			for r := 4; r < 14; r++ {
				if int32(c.Regs[r]) != ref.regs[r] {
					t.Fatalf("trial %d solo=%v: r%d = %d, ref %d", trial, solo, r, int32(c.Regs[r]), ref.regs[r])
				}
			}
			for addr, want := range refMem {
				if got := load(addr); got != want {
					t.Fatalf("trial %d solo=%v: mem[%#x] = %#x, ref %#x", trial, solo, addr, got, want)
				}
			}
		}
	}
}
