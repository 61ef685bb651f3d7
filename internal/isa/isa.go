// Package isa defines the instruction set executed by the simulated cores.
//
// The ISA is a 32-bit load/store RISC modelled on the OpenRISC 1000 subset
// implemented by the OR10N core used in the PULP3 cluster (Gautschi et al.,
// VLSI-SoC'15), including the extensions the DATE'16 paper credits for its
// architectural speedup:
//
//   - register-register multiply-accumulate (MAC)
//   - pseudo-SIMD "infra-word" vector operations on char (4x8) and
//     short (2x16) data, including accumulating dot products
//   - two zero-overhead hardware loops
//   - post-incrementing load/store addressing
//   - unaligned load/store support
//
// The same ISA, with different feature sets and cycle-cost tables, models
// the ARM Cortex-M3/M4 hosts (which have their own strengths: single-cycle
// 32x32+64->64 MAC on the M4, post-increment addressing) and the "plain
// RISC" configuration of footnote 1 in the paper, which is used to count
// the RISC operations of Table I.
package isa

import "fmt"

// Reg is a general-purpose register index (0..31). R0 is hardwired to zero.
type Reg uint8

// Register ABI (OpenRISC-flavoured calling convention).
const (
	R0 Reg = iota // hardwired zero
	SP            // r1: stack pointer
	FP            // r2: frame pointer (unused by generated code)
	A0            // r3..r8: arguments / caller-saved
	A1
	A2
	A3
	A4
	A5
	LR  // r9: link register
	R10 // r10: thread-local (core id cache by convention)
	RV  // r11: return value
	T0  // r12..r18: temporaries
	T1
	T2
	T3
	T4
	T5
	T6
	S0 // r19..r28: callee-saved
	S1
	S2
	S3
	S4
	S5
	S6
	S7
	S8
	S9
	T7 // r29..r31: extra temporaries
	T8
	T9
)

// NumRegs is the size of the register file.
const NumRegs = 32

// Format describes how an instruction's operands are encoded.
type Format uint8

const (
	FmtR  Format = iota // rd, ra, rb
	FmtI                // rd, ra, imm14 (sign- or zero-extended per op)
	FmtIH               // rd, imm16 (MOVHI)
	FmtS                // ra (base), rb (src), imm14 (stores)
	FmtB                // imm24 word offset (branches, jumps)
	FmtJR               // rd (link, JALR only), ra (target)
	FmtN                // no operands
	FmtLP               // rd=loop index, ra=count, imm14=body length
)

// Op is an opcode.
type Op uint8

// Opcode space. The numeric values are the encoding's 8-bit major opcode.
const (
	NOP Op = iota
	// Control flow.
	J    // pc-relative jump
	JAL  // jump and link (LR)
	JR   // jump register
	JALR // jump register and link (rd)
	BF   // branch if flag set
	BNF  // branch if flag clear
	TRAP // halt with code imm (tests / assertions)
	WFE  // wait for event (sleep until event latch set)

	// Flag-setting compares, register-register.
	SFEQ
	SFNE
	SFLTS
	SFLES
	SFGTS
	SFGES
	SFLTU
	SFLEU
	SFGTU
	SFGEU
	// Flag-setting compares, register-immediate.
	SFEQI
	SFNEI
	SFLTSI
	SFLESI
	SFGTSI
	SFGESI
	SFLTUI
	SFGEUI

	// ALU register-register.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	MUL
	DIV
	DIVU
	MIN  // extension: MinMax
	MAX  // extension: MinMax
	MINU // extension: MinMax
	MAXU // extension: MinMax
	MAC  // extension: MacRR — rd += ra*rb (32-bit)
	MSU  // extension: MacRR — rd -= ra*rb (32-bit)
	SEXTB
	SEXTH

	// ALU register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	MOVHI // rd = imm16 << 16
	ORIL  // rd = rd | imm16 (pairs with MOVHI to build 32-bit constants)

	// 64-bit accumulator MAC (feature Mac64; models M3/M4 SMLAL/UMLAL).
	MACS   // acc += sext64(ra) * sext64(rb)
	MACU   // acc += zext64(ra) * zext64(rb)
	MACCLR // acc = 0
	MACRDL // rd = acc[31:0]
	MACRDH // rd = acc[63:32]

	// Pseudo-SIMD (feature SIMD).
	DOTP4B // rd += sum_{i<4} a.b[i]*b.b[i] (signed bytes)
	DOTP2H // rd += sum_{i<2} a.h[i]*b.h[i] (signed halves)
	ADD4B
	SUB4B
	ADD2H
	SUB2H
	SRA2H // per-lane arithmetic shift right by rb[3:0]

	// Loads.
	LBZ // load byte zero-extended
	LBS // load byte sign-extended
	LHZ
	LHS
	LW
	// Post-incrementing loads (feature PostIncr): addr = ra; ra += imm.
	LBZP
	LBSP
	LHZP
	LHSP
	LWP

	// Stores.
	SB
	SH
	SW
	// Post-incrementing stores.
	SBP
	SHP
	SWP

	// Hardware loops (feature HWLoop).
	LPSETUP // loop rd∈{0,1}: count = ra, body = next imm instructions

	// System.
	MFSPR // rd = SPR[imm]

	numOps // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Special-purpose register numbers for MFSPR.
const (
	SprCoreID  = 0 // id of this core within the cluster
	SprNumCore = 1 // number of cores in the cluster
	SprCycleLo = 2 // low 32 bits of the cluster cycle counter
	SprCycleHi = 3 // high 32 bits of the cluster cycle counter
)

type opInfo struct {
	name string
	fmt  Format
}

var opTable = [numOps]opInfo{
	NOP:  {"nop", FmtN},
	J:    {"j", FmtB},
	JAL:  {"jal", FmtB},
	JR:   {"jr", FmtJR},
	JALR: {"jalr", FmtJR},
	BF:   {"bf", FmtB},
	BNF:  {"bnf", FmtB},
	TRAP: {"trap", FmtI},
	WFE:  {"wfe", FmtN},

	SFEQ:  {"sfeq", FmtR},
	SFNE:  {"sfne", FmtR},
	SFLTS: {"sflts", FmtR},
	SFLES: {"sfles", FmtR},
	SFGTS: {"sfgts", FmtR},
	SFGES: {"sfges", FmtR},
	SFLTU: {"sfltu", FmtR},
	SFLEU: {"sfleu", FmtR},
	SFGTU: {"sfgtu", FmtR},
	SFGEU: {"sfgeu", FmtR},

	SFEQI:  {"sfeqi", FmtI},
	SFNEI:  {"sfnei", FmtI},
	SFLTSI: {"sfltsi", FmtI},
	SFLESI: {"sflesi", FmtI},
	SFGTSI: {"sfgtsi", FmtI},
	SFGESI: {"sfgesi", FmtI},
	SFLTUI: {"sfltui", FmtI},
	SFGEUI: {"sfgeui", FmtI},

	ADD:   {"add", FmtR},
	SUB:   {"sub", FmtR},
	AND:   {"and", FmtR},
	OR:    {"or", FmtR},
	XOR:   {"xor", FmtR},
	SLL:   {"sll", FmtR},
	SRL:   {"srl", FmtR},
	SRA:   {"sra", FmtR},
	MUL:   {"mul", FmtR},
	DIV:   {"div", FmtR},
	DIVU:  {"divu", FmtR},
	MIN:   {"min", FmtR},
	MAX:   {"max", FmtR},
	MINU:  {"minu", FmtR},
	MAXU:  {"maxu", FmtR},
	MAC:   {"mac", FmtR},
	MSU:   {"msu", FmtR},
	SEXTB: {"sextb", FmtR},
	SEXTH: {"sexth", FmtR},

	ADDI:  {"addi", FmtI},
	ANDI:  {"andi", FmtI},
	ORI:   {"ori", FmtI},
	XORI:  {"xori", FmtI},
	SLLI:  {"slli", FmtI},
	SRLI:  {"srli", FmtI},
	SRAI:  {"srai", FmtI},
	MOVHI: {"movhi", FmtIH},
	ORIL:  {"oril", FmtIH},

	MACS:   {"macs", FmtR},
	MACU:   {"macu", FmtR},
	MACCLR: {"macclr", FmtN},
	MACRDL: {"macrdl", FmtR},
	MACRDH: {"macrdh", FmtR},

	DOTP4B: {"dotp4b", FmtR},
	DOTP2H: {"dotp2h", FmtR},
	ADD4B:  {"add4b", FmtR},
	SUB4B:  {"sub4b", FmtR},
	ADD2H:  {"add2h", FmtR},
	SUB2H:  {"sub2h", FmtR},
	SRA2H:  {"sra2h", FmtR},

	LBZ:  {"lbz", FmtI},
	LBS:  {"lbs", FmtI},
	LHZ:  {"lhz", FmtI},
	LHS:  {"lhs", FmtI},
	LW:   {"lw", FmtI},
	LBZP: {"lbzp", FmtI},
	LBSP: {"lbsp", FmtI},
	LHZP: {"lhzp", FmtI},
	LHSP: {"lhsp", FmtI},
	LWP:  {"lwp", FmtI},

	SB:  {"sb", FmtS},
	SH:  {"sh", FmtS},
	SW:  {"sw", FmtS},
	SBP: {"sbp", FmtS},
	SHP: {"shp", FmtS},
	SWP: {"swp", FmtS},

	LPSETUP: {"lp.setup", FmtLP},

	MFSPR: {"mfspr", FmtI},
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Format returns the encoding format of the opcode.
func (o Op) Format() Format {
	if int(o) >= len(opTable) {
		return FmtN
	}
	return opTable[o].fmt
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o >= LBZ && o <= LWP }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o >= SB && o <= SWP }

// IsPostIncr reports whether the opcode uses post-increment addressing.
func (o Op) IsPostIncr() bool {
	return (o >= LBZP && o <= LWP) || (o >= SBP && o <= SWP)
}

// MemSize returns the access width in bytes for load/store opcodes (0 for
// non-memory opcodes).
func (o Op) MemSize() uint8 {
	switch o {
	case LBZ, LBS, LBZP, LBSP, SB, SBP:
		return 1
	case LHZ, LHS, LHZP, LHSP, SH, SHP:
		return 2
	case LW, LWP, SW, SWP:
		return 4
	}
	return 0
}

// IsCompare reports whether the opcode sets the flag.
func (o Op) IsCompare() bool { return o >= SFEQ && o <= SFGEUI }

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int32
}

// String disassembles the instruction (without symbol resolution).
func (in Inst) String() string {
	switch in.Op.Format() {
	case FmtN:
		return in.Op.String()
	case FmtR:
		switch in.Op {
		case SEXTB, SEXTH, MACRDL, MACRDH:
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Ra)
		case MACS, MACU:
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Ra, in.Rb)
		case SFEQ, SFNE, SFLTS, SFLES, SFGTS, SFGES, SFLTU, SFLEU, SFGTU, SFGEU:
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Ra, in.Rb)
		}
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Ra, in.Rb)
	case FmtI:
		if in.Op.IsLoad() {
			return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Ra)
		}
		if in.Op.IsCompare() || in.Op == TRAP || in.Op == MFSPR {
			if in.Op == TRAP {
				return fmt.Sprintf("%s %d", in.Op, in.Imm)
			}
			if in.Op == MFSPR {
				return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
			}
			return fmt.Sprintf("%s r%d, %d", in.Op, in.Ra, in.Imm)
		}
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case FmtIH:
		return fmt.Sprintf("%s r%d, 0x%x", in.Op, in.Rd, uint16(in.Imm))
	case FmtS:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rb, in.Imm, in.Ra)
	case FmtB:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case FmtJR:
		if in.Op == JALR {
			return fmt.Sprintf("%s r%d, r%d", in.Op, in.Rd, in.Ra)
		}
		return fmt.Sprintf("%s r%d", in.Op, in.Ra)
	case FmtLP:
		return fmt.Sprintf("%s %d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	}
	return in.Op.String()
}
