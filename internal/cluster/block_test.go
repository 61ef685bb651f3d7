package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/fault"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/obs"
)

// randomProgram generates a terminating straight-line-heavy program that
// exercises every fused-run boundary: ALU runs of mixed length, aligned
// TCDM loads and stores (load-use hazards included), compare+forward-branch
// pairs (both taken and fall-through), small hardware loops on targets that
// have them, and a TRAP epilogue. All memory traffic stays in the first
// 4 KiB of TCDM; branches only jump forward, loops only via LPSETUP, so
// every program halts.
func randomProgram(seed int64, hwloop bool) *asm.Program {
	r := rand.New(rand.NewSource(seed))
	var text []isa.Inst
	emit := func(op isa.Op, rd, ra, rb isa.Reg, imm int32) {
		text = append(text, isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb, Imm: imm})
	}
	reg := func() isa.Reg { return isa.Reg(2 + r.Intn(8)) } // r2..r9

	// Prologue: TCDM base in r1, random constants in r2..r9.
	emit(isa.MOVHI, 1, 0, 0, int32(hw.TCDMBase>>16))
	emit(isa.ORIL, 1, 0, 0, int32(hw.TCDMBase&0xffff))
	for i := isa.Reg(2); i <= 9; i++ {
		emit(isa.MOVHI, i, 0, 0, r.Int31n(1<<16))
		emit(isa.ORIL, i, 0, 0, r.Int31n(1<<16))
	}

	alu := func() {
		switch r.Intn(4) {
		case 0:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL}
			emit(ops[r.Intn(len(ops))], reg(), reg(), reg(), 0)
		case 1:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(1<<12))
		case 2:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(32))
		default:
			emit(isa.SEXTH, reg(), reg(), 0, 0)
		}
	}

	for n := 40 + r.Intn(80); n > 0; n-- {
		switch pick := r.Intn(10); {
		case pick < 4:
			alu()
		case pick < 6: // load: aligned, within [TCDM, TCDM+4K)
			size := int32(1) << r.Intn(3)
			off := r.Int31n(4096/size) * size
			op := [3]isa.Op{isa.LBZ, isa.LHZ, isa.LW}[r.Intn(3)]
			switch op {
			case isa.LBZ:
				size = 1
			case isa.LHZ:
				size = 2
			default:
				size = 4
			}
			off = off / size * size
			emit(op, reg(), 1, 0, off)
		case pick < 8: // store
			op := [3]isa.Op{isa.SB, isa.SH, isa.SW}[r.Intn(3)]
			size := int32(1)
			switch op {
			case isa.SH:
				size = 2
			case isa.SW:
				size = 4
			}
			off := r.Int31n(4096/size) * size
			emit(op, 0, 1, reg(), off)
		case pick < 9: // compare + forward branch over k filler ops
			cmps := []isa.Op{isa.SFEQ, isa.SFNE, isa.SFLTS, isa.SFLTU}
			emit(cmps[r.Intn(len(cmps))], 0, reg(), reg(), 0)
			k := 1 + r.Intn(3)
			br := isa.BF
			if r.Intn(2) == 0 {
				br = isa.BNF
			}
			emit(br, 0, 0, 0, int32(k))
			for ; k > 0; k-- {
				alu()
			}
		default: // small hardware loop (PULP targets only)
			if !hwloop {
				alu()
				continue
			}
			emit(isa.MOVHI, 10, 0, 0, 0)
			emit(isa.ORIL, 10, 0, 0, int32(2+r.Intn(6)))
			body := 1 + r.Intn(4)
			emit(isa.LPSETUP, isa.Reg(r.Intn(2)), 10, 0, int32(body))
			for ; body > 0; body-- {
				alu()
			}
		}
	}
	emit(isa.TRAP, 0, 0, 0, 0)
	return &asm.Program{
		Name:     fmt.Sprintf("random-%d", seed),
		Entry:    hw.TextBase,
		TextBase: hw.TextBase,
		Text:     text,
	}
}

// blockTestConfigs are the cluster shapes the block differentials run on:
// the 4-core PULP cluster (multi-core fused runs with real bank
// arbitration), the same cluster with one core (solo fused runs), and the
// single-core MCU profile (load-use hazards, no hardware loops).
func blockTestConfigs() []struct {
	name   string
	cfg    cluster.Config
	hwloop bool
} {
	pulp1 := cluster.PULPConfig()
	pulp1.Cores = 1
	return []struct {
		name   string
		cfg    cluster.Config
		hwloop bool
	}{
		{"pulp-4c", cluster.PULPConfig(), true},
		{"pulp-1c", pulp1, true},
		{"m4", cluster.MCUConfig(isa.CortexM4), false},
	}
}

// runMode runs one program on one cluster config in a single execution
// mode (selected via cfg) and returns the observable state: cycles, error,
// aggregate stats, 9-class cycle attribution, the first 8 KiB of TCDM, and
// every core's registers and PC.
type modeResult struct {
	cycles uint64
	errStr string
	stats  cluster.Stats
	attr   *obs.Attribution
	mem    []byte
	regs   [][32]uint32
	pcs    []uint32
}

func runMode(t *testing.T, cfg cluster.Config, p *asm.Program, inj *fault.Injector) modeResult {
	t.Helper()
	cl := cluster.New(cfg)
	cl.AttachFaults(inj)
	at := obs.NewAttribution(cfg.Cores)
	cl.AttachObs(&obs.Observer{Attr: at})
	if err := cl.LoadProgram(p, true); err != nil {
		t.Fatalf("load: %v", err)
	}
	cl.Start(p.Entry)
	res, err := cl.Run(1_000_000)
	mr := modeResult{cycles: res.Cycles, stats: cl.CollectStats(), attr: at, mem: cl.TCDM.ReadBytes(hw.TCDMBase, 8192)}
	if err != nil {
		mr.errStr = err.Error()
	}
	for _, c := range cl.Cores {
		var regs [32]uint32
		copy(regs[:], c.Regs[:])
		mr.regs = append(mr.regs, regs)
		mr.pcs = append(mr.pcs, c.PC)
	}
	return mr
}

func compareModes(t *testing.T, sup, stp, ref modeResult) {
	t.Helper()
	compareLeg(t, "super", sup, ref)
	compareLeg(t, "stepped", stp, ref)
}

func compareLeg(t *testing.T, name string, got, ref modeResult) {
	t.Helper()
	if got.cycles != ref.cycles {
		t.Errorf("%s: cycles %d, reference %d", name, got.cycles, ref.cycles)
	}
	if got.errStr != ref.errStr {
		t.Errorf("%s: error %q, reference %q", name, got.errStr, ref.errStr)
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		t.Errorf("%s: stats diverged:\n%+v\nreference:\n%+v", name, got.stats, ref.stats)
	}
	if !reflect.DeepEqual(got.attr, ref.attr) {
		t.Errorf("%s: attribution diverged:\n%+v\nreference:\n%+v", name, got.attr, ref.attr)
	}
	if !bytes.Equal(got.mem, ref.mem) {
		t.Errorf("%s: TCDM contents diverged", name)
	}
	if !reflect.DeepEqual(got.regs, ref.regs) {
		t.Errorf("%s: register files diverged", name)
	}
	if !reflect.DeepEqual(got.pcs, ref.pcs) {
		t.Errorf("%s: final PCs diverged", name)
	}
}

// TestRandomizedBlockDifferential fuzzes the block-compiled executor:
// randomized programs over the fusable instruction space run in all three
// execution modes on three cluster shapes, and every observable — cycles,
// stats, memory, registers, PCs — must be bit-identical to the naive
// reference loop.
func TestRandomizedBlockDifferential(t *testing.T) {
	for _, tc := range blockTestConfigs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 24; seed++ {
				p := randomProgram(seed, tc.hwloop)

				cfg := tc.cfg
				cfg.ReferenceRun, cfg.NoBlocks = false, false
				sup := runMode(t, cfg, p, nil)
				cfg.NoBlocks = true
				stp := runMode(t, cfg, p, nil)
				cfg.ReferenceRun = true
				ref := runMode(t, cfg, p, nil)

				if t.Failed() {
					t.Fatalf("seed %d diverged", seed)
				}
				compareModes(t, sup, stp, ref)
				if t.Failed() {
					t.Fatalf("seed %d diverged (program: %d insts)", seed, len(p.Text))
				}
			}
		})
	}
}

// TestRandomizedBranchyDifferential fuzzes fused execution on
// branch/loop-dominated programs (hot backward branches, taken-branch
// chains, nested hardware loops, barrier-separated per-core phases that
// leave one core running solo) in three execution modes — fused (the default),
// stepped, and the naive reference — and every observable including
// 9-class attribution must be bit-identical.
func TestRandomizedBranchyDifferential(t *testing.T) {
	for _, tc := range blockTestConfigs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 24; seed++ {
				p := kernels.BranchyProgram(seed, kernels.BranchyOpts{
					HWLoop:   tc.hwloop,
					Barriers: tc.cfg.Cores > 1,
				})

				cfg := tc.cfg
				cfg.ReferenceRun, cfg.NoBlocks = false, false
				sup := runMode(t, cfg, p, nil)
				cfg.NoBlocks = true
				stp := runMode(t, cfg, p, nil)
				cfg.ReferenceRun = true
				ref := runMode(t, cfg, p, nil)

				compareModes(t, sup, stp, ref)
				if t.Failed() {
					t.Fatalf("seed %d diverged (program: %d insts)", seed, len(p.Text))
				}
			}
		})
	}
}

// TestBlockFaultDifferential pins the fault-injection contract of block
// mode: with a seeded SEU injector attached the cluster strips the block
// tables (fused runs cannot see mid-run bit flips at the right cycle), and
// the resulting stepped execution — including every injected flip — is
// bit-identical across all three modes. A fresh injector with the same
// seed is built per leg so the fault sequence replays exactly.
func TestBlockFaultDifferential(t *testing.T) {
	faultCfg := fault.Config{Seed: 42, TCDMFlipRate: 0.02, L2FlipRate: 0.001, ParityRate: 0.001}
	for _, tc := range blockTestConfigs() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				p := randomProgram(seed, tc.hwloop)

				cfg := tc.cfg
				cfg.ReferenceRun, cfg.NoBlocks = false, false
				sup := runMode(t, cfg, p, fault.New(faultCfg))
				cfg.NoBlocks = true
				stp := runMode(t, cfg, p, fault.New(faultCfg))
				cfg.ReferenceRun = true
				ref := runMode(t, cfg, p, fault.New(faultCfg))

				compareModes(t, sup, stp, ref)
				if t.Failed() {
					t.Fatalf("seed %d diverged under faults", seed)
				}
			}
		})
	}
}
