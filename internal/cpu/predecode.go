package cpu

import "hetsim/internal/isa"

// InstMeta is the per-instruction metadata the core precomputes once at
// program load instead of rederiving on every fetch: target support, the
// memory-access shape, the source-register mask consumed by the load-use
// hazard check, and the base cycle cost. One slice is shared by all cores
// of a cluster (they run the same target and the same text).
type InstMeta struct {
	// ReadMask has bit r set when the instruction sources register r.
	// Bit 0 (R0) is always clear: reads of the hardwired zero register
	// never create a hazard.
	ReadMask uint32
	// Cyc is the target's base cycle cost of the op (OpCycles).
	Cyc uint8
	// Size is the access width in bytes for loads/stores, 0 otherwise.
	Size uint8
	// Flags is a bitset of Meta* properties.
	Flags uint8
}

// InstMeta flags.
const (
	// MetaIllegal marks an op the target does not implement; executing it
	// faults (the check moved here from the per-fetch path).
	MetaIllegal uint8 = 1 << iota
	// MetaMem marks loads and stores (dispatched to the memory pipeline).
	MetaMem
	// MetaStore marks stores.
	MetaStore
	// MetaPostIncr marks post-incrementing addressing.
	MetaPostIncr
	// MetaChkAlign marks a load/store on a target without unaligned
	// support: a misaligned effective address faults. Predecoding the
	// target feature keeps the issue path branching on metadata already
	// in hand instead of loading core state.
	MetaChkAlign
	// MetaFuseBreak marks an instruction that ends a fused basic-block
	// run before it executes (see block.go): ops that can sleep, halt or
	// read cluster state outside the core (WFE, TRAP, MFSPR) must take
	// the stepped path so sleep transitions, termination and SPR reads
	// happen at their exact cycle.
	MetaFuseBreak
)

// Decoded is one predecoded instruction: the instruction word and its
// metadata side by side, so the fetch path loads both with a single bounds
// check and from the same cache line.
type Decoded struct {
	In   isa.Inst
	Meta InstMeta
}

// Predecode validates and annotates a text segment for a target. It is
// called once per LoadProgram; the resulting slice parallels text.
func Predecode(text []isa.Inst, target isa.Target) []Decoded {
	code := make([]Decoded, len(text))
	for i, in := range text {
		m := InstMeta{
			ReadMask: readMask(in),
			Cyc:      uint8(target.OpCycles(in.Op)),
		}
		if !target.Supports(in.Op) {
			m.Flags |= MetaIllegal
		}
		// Out-of-range register numbers fault at execute instead of
		// panicking; the core's register file relies on this to index
		// without bounds checks.
		if in.Rd >= isa.NumRegs || in.Ra >= isa.NumRegs || in.Rb >= isa.NumRegs {
			m.Flags |= MetaIllegal
		}
		switch in.Op {
		case isa.TRAP, isa.WFE, isa.MFSPR:
			m.Flags |= MetaFuseBreak
		}
		if in.Op.IsLoad() || in.Op.IsStore() {
			m.Flags |= MetaMem
			m.Size = in.Op.MemSize()
			if in.Op.IsStore() {
				m.Flags |= MetaStore
			}
			if in.Op.IsPostIncr() {
				m.Flags |= MetaPostIncr
			}
			if !target.Feat.Unaligned {
				m.Flags |= MetaChkAlign
			}
		}
		code[i] = Decoded{In: in, Meta: m}
	}
	return code
}

// readMask computes the source-register bitmask of an instruction. It
// mirrors the operand conventions of the one execute switch (runFused in
// block.go, which the oracle in cpu_test.go checks): R-format ops read
// Ra and Rb (accumulating ops additionally read their destination),
// I-format ops read Ra, stores read base and data, register jumps and
// hardware-loop setups read Ra, and ORIL is read-modify-write on Rd.
func readMask(in isa.Inst) uint32 {
	var m uint32
	switch in.Op.Format() {
	case isa.FmtR:
		m = 1<<in.Ra | 1<<in.Rb
		switch in.Op {
		case isa.MAC, isa.MSU, isa.DOTP4B, isa.DOTP2H:
			m |= 1 << in.Rd
		}
	case isa.FmtI:
		if in.Op == isa.ORIL {
			m = 1 << in.Rd
		} else {
			m = 1 << in.Ra
		}
	case isa.FmtIH:
		if in.Op == isa.ORIL {
			m = 1 << in.Rd
		}
	case isa.FmtS:
		m = 1<<in.Ra | 1<<in.Rb
	case isa.FmtJR:
		m = 1 << in.Ra
	case isa.FmtLP:
		m = 1 << in.Ra
	}
	return m &^ 1 // R0 is hardwired zero; reading it is never a hazard
}
