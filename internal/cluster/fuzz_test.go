package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
)

// fuzzShape maps a fuzz input onto a cluster: 1–8 cores and 1–16 TCDM
// banks of the PULP cluster, running the PULP target with hardware loops
// or the Cortex-M4 target (load-use bubbles, no hardware loops) without.
// One core on one bank without hardware loops is the MCU host shape
// itself: flat memory and no I$.
func fuzzShape(hwloop bool, cores, banks uint8) cluster.Config {
	n, b := 1+int(cores%8), 1+int(banks%16)
	if !hwloop && n == 1 && b == 1 {
		return cluster.MCUConfig(isa.CortexM4)
	}
	cfg := cluster.PULPConfig()
	cfg.Cores, cfg.TCDMBanks = n, b
	if !hwloop {
		cfg.Target = isa.CortexM4
	}
	return cfg
}

// TCDM layout of a fuzz program, all inside the 8 KiB runMode compares:
// a 480-byte private region per core (skewed by a word per core), a
// 128-byte producer/consumer slot
// per core, a read-only region every core loads from, and a racy region
// every core stores to without synchronization.
const (
	fuzzPrivate  = 0    // + id*516
	fuzzSlots    = 4096 // + id*128
	fuzzReadOnly = 5120
	fuzzRacy     = 6144
)

// fuzzProgram generates a terminating multi-core program for the tier
// differential. Every core runs the same text but addresses its own
// private region, so optimistic windows commit long bank-disjoint
// stretches; read-only loads of one shared region, unaligned accesses,
// multi-cycle divides, cycle-counter reads and hardware loops ride along.
// With share set, cores also exchange data: producer/consumer phases
// store into a core's own slot, cross a barrier, and load the slot of the
// next core, and racy stores and loads hit the same few words on every
// core with no barrier at all (odd cores storing what even cores load, in
// part) — the cross-core store→load and store→store pairs a window must
// never commit.
//
// Register map: r1 TCDM base, r2..r9 random data, r10 loop count, r11
// core ID, r13 scratch, r14 barrier address, r15 team size, r16 private
// base, r17 consumer slot, r18 producer slot, r19 trip count.
func fuzzProgram(seed int64, hwloop, share bool) *asm.Program {
	r := rand.New(rand.NewSource(seed))
	var text []isa.Inst
	emit := func(op isa.Op, rd, ra, rb isa.Reg, imm int32) {
		text = append(text, isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb, Imm: imm})
	}
	li := func(rd isa.Reg, v uint32) {
		emit(isa.MOVHI, rd, 0, 0, int32(v>>16))
		emit(isa.ORIL, rd, 0, 0, int32(v&0xffff))
	}
	reg := func() isa.Reg { return isa.Reg(2 + r.Intn(8)) } // r2..r9
	barrier := func() { emit(isa.SW, 0, 14, 15, 0) }

	li(1, hw.TCDMBase)
	for i := isa.Reg(2); i <= 9; i++ {
		li(i, uint32(r.Int63()))
	}
	emit(isa.MFSPR, 11, 0, 0, isa.SprCoreID)
	emit(isa.MFSPR, 15, 0, 0, isa.SprNumCore)
	li(14, hw.EvtBase+hw.EvtBarrierArrive)
	// r16 = base + id*516: the 4-byte skew puts the cores' same-offset
	// private words in different banks.
	emit(isa.SLLI, 16, 11, 0, 9)
	emit(isa.ADD, 16, 16, 1, 0)
	emit(isa.SLLI, 13, 11, 0, 2)
	emit(isa.ADD, 16, 16, 13, 0)
	emit(isa.SLLI, 18, 11, 0, 7)
	emit(isa.ADD, 18, 18, 1, 0)
	emit(isa.ADDI, 18, 18, 0, fuzzSlots)
	// r17 = slot of core (id+1) mod n: skip the wrap unless id+1 == n.
	emit(isa.ADDI, 13, 11, 0, 1)
	emit(isa.SFEQ, 0, 13, 15, 0)
	emit(isa.BNF, 0, 0, 0, 1)
	emit(isa.MOVHI, 13, 0, 0, 0)
	emit(isa.SLLI, 17, 13, 0, 7)
	emit(isa.ADD, 17, 17, 1, 0)
	emit(isa.ADDI, 17, 17, 0, fuzzSlots)

	alu := func() {
		switch r.Intn(5) {
		case 0:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.MUL}
			emit(ops[r.Intn(len(ops))], reg(), reg(), reg(), 0)
		case 1:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(1<<12))
		case 2:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(ops[r.Intn(len(ops))], reg(), reg(), 0, r.Int31n(32))
		case 3:
			if r.Intn(4) == 0 { // multi-cycle tail
				emit(isa.DIVU, reg(), reg(), reg(), 0)
			} else {
				emit(isa.SEXTH, reg(), reg(), 0, 0)
			}
		default:
			emit(isa.SEXTB, reg(), reg(), 0, 0)
		}
	}
	// access emits one load or store at base+[lo, lo+span), aligned to its
	// size except for an occasional unaligned word or half access.
	access := func(base isa.Reg, lo, span int32, store bool) {
		sizes := []int32{1, 2, 4}
		size := sizes[r.Intn(3)]
		off := lo + r.Int31n((span-4)/size)*size
		if size > 1 && r.Intn(8) == 0 {
			off++ // unaligned: may straddle two words (and two banks)
		}
		if store {
			op := map[int32]isa.Op{1: isa.SB, 2: isa.SH, 4: isa.SW}[size]
			emit(op, 0, base, reg(), off)
			return
		}
		op := map[int32]isa.Op{1: isa.LBZ, 2: isa.LHS, 4: isa.LW}[size]
		emit(op, reg(), base, 0, off)
	}

	// The body runs 3–6 times under a counted backward branch, so the I$
	// warms up and later trips run in long windows.
	li(19, uint32(3+r.Intn(4)))
	top := int32(len(text))
	for n := 40 + r.Intn(80); n > 0; n-- {
		switch pick := r.Intn(80); {
		case pick < 30:
			alu()
		case pick < 42:
			access(16, fuzzPrivate, 480, false)
		case pick < 54:
			access(16, fuzzPrivate, 480, true)
		case pick < 58:
			access(1, fuzzReadOnly, 1024, false)
		case pick < 66: // compare + forward branch over k filler ops
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
		case pick < 67: // cycle-counter read folded into the data
			emit(isa.MFSPR, 13, 0, 0, isa.SprCycleLo)
			emit(isa.XOR, reg(), reg(), 13, 0)
		case pick < 71 && hwloop:
			li(10, uint32(2+r.Intn(6)))
			body := 1 + r.Intn(4)
			emit(isa.LPSETUP, isa.Reg(r.Intn(2)), 10, 0, int32(body))
			for ; body > 0; body-- {
				if r.Intn(3) == 0 {
					access(16, fuzzPrivate, 480, r.Intn(2) == 0)
				} else {
					alu()
				}
			}
		case pick < 73 && share: // producer/consumer phase
			for k := 1 + r.Intn(4); k > 0; k-- {
				access(18, 0, 128, true)
			}
			barrier()
			for k := 1 + r.Intn(4); k > 0; k-- {
				access(17, 0, 128, false)
				alu()
			}
			barrier()
		case pick < 75 && share: // racy: every core hits the same words unsynchronized
			access(1, fuzzRacy, 20, r.Intn(2) == 0)
		case pick < 77 && share: // racy pair: odd cores store a word even cores load
			emit(isa.ANDI, 13, 11, 0, 1)
			emit(isa.SFEQI, 0, 13, 0, 0)
			emit(isa.BF, 0, 0, 0, 1)
			access(1, fuzzRacy, 20, true)
			access(1, fuzzRacy, 20, false)
		default:
			alu()
		}
	}
	emit(isa.ADDI, 19, 19, 0, -1)
	emit(isa.SFEQI, 0, 19, 0, 0)
	emit(isa.BNF, 0, 0, 0, top-int32(len(text))-1)
	// Publish the data registers so register-only divergence shows in
	// memory too, then meet everyone before halting.
	for i := isa.Reg(2); i <= 9; i++ {
		emit(isa.SW, 0, 16, i, 448+4*int32(i-2))
	}
	barrier()
	emit(isa.TRAP, 0, 0, 0, 0)
	return &asm.Program{
		Name:     fmt.Sprintf("fuzz-%d", seed),
		Entry:    hw.TextBase,
		TextBase: hw.TextBase,
		Text:     text,
	}
}

// FuzzTierDifferential runs one generated program on one cluster shape in
// all three execution modes — fused (solo runs and optimistic windows),
// stepped (Config.NoBlocks) and the naive reference loop — and requires
// bit-identical cycles, error, Stats, 9-class attribution, TCDM contents,
// registers and PCs. The checked-in corpus (testdata/fuzz) replays under
// plain `go test`; `go test -fuzz FuzzTierDifferential` explores further,
// and any failing input it finds is committed there as a permanent case.
func FuzzTierDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, hwloop bool, cores, banks uint8, share bool) {
		cfg := fuzzShape(hwloop, cores, banks)
		p := fuzzProgram(seed, hwloop && cfg.Target.Feat.HWLoop, share)
		cfg.ReferenceRun, cfg.NoBlocks = false, false
		sup := runMode(t, cfg, p, nil)
		cfg.NoBlocks = true
		stp := runMode(t, cfg, p, nil)
		cfg.ReferenceRun = true
		ref := runMode(t, cfg, p, nil)
		if ref.errStr != "" {
			t.Fatalf("reference run failed: %s", ref.errStr)
		}
		compareModes(t, sup, stp, ref)
	})
}
