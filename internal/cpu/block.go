// Basic-block compiled execution (DESIGN.md §12). At predecode time the
// program text is partitioned into straight-line runs; at execute time the
// core fuses a whole run into one runFused call instead of paying the
// Step gate/fetch/decode prologue once per instruction. Cycle counts,
// stats and the 9-class obs attribution stay bit-identical to stepped
// execution: everything that interacts with shared cluster state (TCDM
// bank arbitration, I$ refills, sleep/wake, DMA and event-unit registers,
// SPR reads, faults) either happens at its exact cycle inside the run or
// breaks the run back to the stepped path.
package cpu

import (
	"sync/atomic"

	"hetsim/internal/isa"
	"hetsim/internal/obs"
	"hetsim/internal/prof"
)

// BlockTable is the compiled run-length table of a program text: one entry
// per instruction, shared read-only across cores and jobs (the kernels
// package memoizes it per program and target).
type BlockTable struct {
	// Multi[i] is the number of instructions the core may fuse starting
	// at instruction i while other cores (or the DMA) are active: an
	// optional memory access at offset 0 — executed through real TCDM
	// bank arbitration at its true cycle — followed by a pure-ALU tail.
	// Branches end a run inclusively; WFE/TRAP/MFSPR and illegal ops end
	// it exclusively (Multi = 0). Runs of length <= 1 are not dispatched.
	Multi []uint16
	// Span[i] is the superblock tier's per-exit side-table: the
	// worst-case cycle span of the (clamped) run starting at i, or
	// spanNoChain when a chained run must not continue there (mem-led
	// runs — a mid-window access cannot arbitrate at a future cycle —
	// and fuse-break/illegal/empty entries). A chain is admitted only
	// while the accumulated offset plus Span of the target still fits
	// the charge plan (maxRunSpan).
	Span []uint16
}

// Compiled bundles everything derived from a program text for one target:
// the predecoded instruction stream and the block run table. Both are
// immutable after Compile and safe to share across cores and processes'
// worth of sweep jobs.
type Compiled struct {
	Code   []Decoded
	Blocks *BlockTable
}

// BlockCompiles counts CompileBlocks invocations process-wide; the
// kernels-package memo test pins that one image compiles exactly once
// under a parallel sweep.
var BlockCompiles atomic.Uint64

// SuperCompiles counts superblock formations process-wide: conditional
// branch edges whose hot counter crossed the threshold, promoting the
// edge into the chainable set (the tier's analogue of a trace-compile
// event in a tracing JIT). Unconditional edges — jumps and hardware-loop
// back-edges — chain statically and never record a formation.
var SuperCompiles atomic.Uint64

// maxRunLen caps a table entry; longer straight-line stretches simply
// re-dispatch (uint16 keeps the table at 2 bytes/instruction).
const maxRunLen = 0xffff

// maxRunSpan bounds the worst-case cycle window of a multi-core fused
// run — including every chained superblock segment — so the deferred
// charge plan's planWords-word per-offset bitmasks always cover it.
// Enforced at compile time for the first segment (clampSpans) and at
// each chain admission (Span side-table), never per executed op.
const maxRunSpan = planWords*64 - 2

// planWords sizes the deferred charge plan's bitmasks (core.go).
const planWords = 4

// planFetchCap bounds the fetch points of one charge plan: the line
// crossings a chained run may defer to live I$ consultation (core.go).
// A run that would cross more lines simply ends at the crossing and the
// stepped path re-dispatches there.
const planFetchCap = 16

// spanNoChain marks a Span entry a chained run must not continue into.
const spanNoChain = 0xffff

// hotEdgeThreshold is how many times a conditional-branch edge must be
// taken (or fallen through) before chained execution follows it. Cold
// and flip-flopping branches keep ending runs at the branch — the
// stepped path re-dispatches from the target — while steady loop exits
// and guard branches promote quickly.
const hotEdgeThreshold = 8

// isBranch reports ops whose next PC is (potentially) nonsequential; they
// may end a fused run inclusively, never start a tail through it.
func isBranch(op isa.Op) bool {
	switch op {
	case isa.J, isa.JAL, isa.JR, isa.JALR, isa.BF, isa.BNF:
		return true
	}
	return false
}

// CompileBlocks builds the run-length table for a predecoded text in one
// backward pass: aluTail is the fusable pure-ALU (plus trailing branch)
// run length starting at the instruction after the current one. A forward
// pass then clamps each run's worst-case cycle span to the charge plan's
// capacity using the target's timing.
func CompileBlocks(code []Decoded, target isa.Target) *BlockTable {
	BlockCompiles.Add(1)
	bt := &BlockTable{
		Multi: make([]uint16, len(code)),
		Span:  make([]uint16, len(code)),
	}
	aluTail := 0
	for i := len(code) - 1; i >= 0; i-- {
		m := &code[i].Meta
		switch {
		case m.Flags&(MetaIllegal|MetaFuseBreak) != 0:
			bt.Multi[i] = 0
			aluTail = 0
		case m.Flags&MetaMem != 0:
			n := 1 + aluTail
			if n > maxRunLen {
				n = maxRunLen
			}
			bt.Multi[i] = uint16(n)
			aluTail = 0
		case isBranch(code[i].In.Op):
			bt.Multi[i] = 1
			aluTail = 1
		default:
			n := 1 + aluTail
			if n > maxRunLen {
				n = maxRunLen
			}
			bt.Multi[i] = uint16(n)
			aluTail = n
		}
	}
	clampSpans(bt, code, target)
	return bt
}

// clampSpans shortens each Multi run so its worst-case cycle window —
// hazard bubble + issue + multi-cycle tail + branch penalty + unaligned
// extra per op — fits maxRunSpan, and records the resulting span in the
// Span side-table (the superblock tier's chain-admission bound). Moving
// the bound here keeps the fused executor's per-op path free of cap
// arithmetic; a truncated run simply re-dispatches — or chains — from
// its cut point. Mem-led runs get spanNoChain: a chained run cannot
// admit a memory access mid-window, because bank arbitration at a
// future cycle is unknowable at dispatch time.
func clampSpans(bt *BlockTable, code []Decoded, target isa.Target) {
	loadUse := uint64(target.Time.LoadUse)
	braMax := uint64(target.Time.Jump)
	if b := uint64(target.Time.BranchTaken); b > braMax {
		braMax = b
	}
	for i := range code {
		n := int(bt.Multi[i])
		if n == 0 || code[i].Meta.Flags&MetaMem != 0 {
			bt.Span[i] = spanNoChain
			if n <= 1 {
				continue
			}
		}
		span := uint64(0)
		for k := 0; k < n; k++ {
			d := &code[i+k]
			w := 1 + loadUse
			if cyc := uint64(d.Meta.Cyc); cyc > 1 {
				w += cyc - 1
			}
			if isBranch(d.In.Op) {
				w += braMax
			}
			if d.Meta.Flags&MetaMem != 0 {
				w++ // possible unaligned second bank cycle
			}
			if span+w > maxRunSpan {
				bt.Multi[i] = uint16(k)
				break
			}
			span += w
		}
		if bt.Span[i] != spanNoChain {
			bt.Span[i] = uint16(span)
		}
	}
}

// Compile predecodes a text segment and builds its block table. The work
// runs under the "block-compile" pprof label so compile time is separable
// from simulation time in -cpuprofile output.
func Compile(text []isa.Inst, target isa.Target) *Compiled {
	var comp *Compiled
	prof.Label("block-compile", func() {
		code := Predecode(text, target)
		comp = &Compiled{Code: code, Blocks: CompileBlocks(code, target)}
	})
	return comp
}

// SetBlocks installs (or, with nil, removes) the block run table, which
// enables fused execution: chained runs in runFusedMulti, gated per
// conditional edge by the hot counters, and trace chasing in
// runFusedSolo. The cluster only installs it for the event-driven loop
// with faults and tracing detached; ReferenceRun and fault-injected
// clusters always step. Installing a table also allocates or clears the
// hot-edge counters: per-core warm-up state of the loaded image (not
// shared through the compile memo), reset here, off the hot path, and
// deliberately NOT by Start — restarting the same program keeps its hot
// traces.
func (c *Core) SetBlocks(bt *BlockTable) {
	c.blocks = bt
	if bt == nil {
		return
	}
	if n := len(bt.Multi); len(c.edges) < n {
		c.edges = make([]uint8, n)
		return
	}
	clear(c.edges)
}

// SetRunHorizon bounds solo fused execution: no instruction issues at or
// past cycle h (the cluster sets it to start+maxCycles each Run, so a
// fused run can never execute work the run-loop budget would have cut
// off).
func (c *Core) SetRunHorizon(h uint64) { c.horizon = h }

// SetSoloWindow bounds solo fused execution inside a solo window: no
// instruction issues at or past cycle h, where the cluster determined
// the earliest sibling actor resumes. Unlike the run-loop horizon the
// cycles past h are still simulated, so charge tails may spill across
// it (core.go winHorizon). NextEventNever clears the bound.
func (c *Core) SetSoloWindow(h uint64) { c.winHorizon = h }

// hotEdge warms the saturating counter of the conditional-branch edge at
// instruction index i and reports whether it is hot enough to chain
// through. Crossing the threshold is a superblock formation; from then
// on every dispatch chains through this edge. Taken and fall-through
// directions share the counter: what it measures is whether the branch
// is steady, not which way it goes — a flip-flopping branch still warms
// up, but each dispatch then follows the actual executed direction, so
// chained execution never speculates.
func (c *Core) hotEdge(i uint32) bool {
	e := c.edges[i]
	if e >= hotEdgeThreshold {
		return true
	}
	e++
	c.edges[i] = e
	if e == hotEdgeThreshold {
		SuperCompiles.Add(1)
		return true
	}
	return false
}

// chainTo admits (or refuses) chaining a fused run into the run headed
// at pc, with o plan offsets already consumed. On ok it returns the
// target's instruction index and its segment end. Refusals —
// out-of-text targets, mem-led or fuse-break/illegal/empty targets,
// span overflow — leave the caller to end the run before any side
// effect of the target, exactly at the boundary the stepped path would
// re-dispatch from. Fetch-line crossings do not refuse a chain: the
// segment loop records a fetch point at the crossing offset and the
// plan gate consults the I$ live at that exact cycle.
func (c *Core) chainTo(pc uint32, o uint64) (idx, end uint32, ok bool) {
	bt := c.blocks
	idx = (pc - c.base) / 4
	if idx >= uint32(len(c.code)) {
		return 0, 0, false // stepped path faults at the exact cycle
	}
	span := bt.Span[idx]
	if span == spanNoChain || o+uint64(span) > maxRunSpan {
		return 0, 0, false
	}
	n := uint32(bt.Multi[idx])
	end = idx + n
	if end == idx {
		return 0, 0, false // empty run: nothing to fuse
	}
	return idx, end, true
}

// runFusedMulti executes a run of instructions starting at the current PC
// in one call, beginning at cycle now, while other cores (or the DMA) may
// be active. The first segment's shape comes from the Multi table: an
// optional memory access at offset 0 — issued through real TCDM bank
// arbitration at the true current cycle, in the core's true rotation
// slot — followed by a pure-ALU tail. A run-ending control transfer
// chains into the next run when the Span side-table admits it:
// unconditional jumps and hardware-loop back-edges chain statically,
// conditional branches chain once their edge counter is hot, and every
// chain is bounded so the whole trace still fits the charge plan. A
// chain that is refused — cold edge, mem-led target, span overflow,
// indirect jump — simply ends the run before any side effect of the
// target, and the stepped path re-dispatches there. A fetch-line
// crossing does not refuse a chain (see chainTo): it records a fetch
// point, and only a full fetch-point budget ends the run there.
//
// Only the dispatch cycle is charged here; the rest of the window becomes
// a deferred charge plan (per-offset class bitmasks) that Step's stall
// gate and CreditIdle consume cycle-exactly as the window actually
// elapses. Charges simply stop if the cluster run ends mid-window, so
// Stats and attribution always cover exactly the simulated cycles.
//
// The per-instruction loop carries no mode flags, counters or horizon
// checks: the span is bounded at compile time for the first segment
// (clampSpans) and at admission for each chained one, and the load-use
// hazard — only ever possible between the offset-0 load and the first
// continuation op, since pure-ALU instructions never arm one — is
// resolved before the segment loop.
//
// ok=false means nothing executed (the first instruction needs the stepped
// path) and the caller must fall through; no state was modified.
func (c *Core) runFusedMulti(now uint64, n uint32) (uint64, bool) {
	if c.Trace != nil {
		// Tracing needs one event per instruction at its exact cycle; the
		// stepped path provides that (the cluster strips block tables when
		// a tracer is attached, so this only guards direct Core users).
		return 0, false
	}
	code := c.code
	pc := c.PC
	idx := (pc - c.base) / 4
	end := idx + n
	// Fetch lines put no cap on a run: each crossing records a fetch
	// point at its issue offset, and the plan gate consults the I$ live
	// at exactly that cycle.
	checkLine := c.IC != nil
	lineMask := c.FetchLineMask
	buildLine := pc &^ lineMask
	var fpN uint8 // fetch points are written straight into c.planFetch*
	var o uint64  // cycle offset from now of the next issue
	var planIssue, planLU, planEM [planWords]uint64

	if d := &code[idx]; d.Meta.Flags&MetaMem != 0 {
		m := d.Meta
		in := d.In
		size := uint32(m.Size)
		var addr uint32
		if m.Flags&MetaPostIncr != 0 {
			addr = c.reg(in.Ra)
		} else {
			addr = c.reg(in.Ra) + uint32(in.Imm)
		}
		if m.Flags&MetaChkAlign != 0 && addr&(size-1) != 0 {
			return 0, false // fault via the stepped path at the exact cycle
		}
		tm := c.TCDM
		if tm == nil || !tm.Contains(addr, size) {
			return 0, false // env dispatch (event unit, DMA, SoC, L2) steps
		}
		store := m.Flags&MetaStore != 0
		var wdata uint32
		if store {
			wdata = c.reg(in.Rb)
		}
		if !tm.Request(addr) {
			// Denied at offset 0: identical to the stepped path — park the
			// op and retry next cycle.
			c.park(in, m, addr, wdata, obs.Conflict)
			return now + 1, true
		}
		if store {
			tm.Write(addr, size, wdata)
		} else {
			rdata := tm.Read(addr, size)
			var v uint32
			switch in.Op {
			case isa.LBZ, isa.LBZP:
				v = rdata & 0xff
			case isa.LBS, isa.LBSP:
				v = uint32(int32(int8(rdata)))
			case isa.LHZ, isa.LHZP:
				v = rdata & 0xffff
			case isa.LHS, isa.LHSP:
				v = uint32(int32(int16(rdata)))
			default:
				v = rdata
			}
			c.setReg(in.Rd, v)
			c.lastLoadReg = in.Rd
			c.lastLoadArmed = true
		}
		if m.Flags&MetaPostIncr != 0 {
			// Re-read Ra: a post-incrementing load with Rd == Ra must
			// increment the loaded value, exactly as the stepped path.
			c.setReg(in.Ra, c.reg(in.Ra)+uint32(in.Imm))
		}
		planIssue[0] = 1
		o = 1
		if addr&(size-1) != 0 {
			// Unaligned access: second bank cycle, attributed ExtMem.
			planEM[0] = 2
			o = 2
		}
		next := pc + 4
		if next == c.lpEnd[0] || next == c.lpEnd[1] {
			next = c.lpWrap(next)
		}
		idx++
		if next != pc+4 {
			// Hardware-loop wraparound right after the access: the Multi
			// table is straight-line, so the run ends here unless the
			// back-edge chains into the loop head's run. When the run
			// ends, the armed load-use state carries to the stepped path
			// at window end.
			pc = next
			nidx, nend, ok := c.chainTo(pc, o)
			if !ok {
				goto done
			}
			idx, end = nidx, nend
		} else {
			pc = next
		}
		// Line crossing of the first continuation op: stepped execution
		// fetches before it checks the hazard, so the fetch point comes
		// first — at the pre-hazard offset.
		if checkLine && idx < end && pc&^lineMask != buildLine {
			if fpN == planFetchCap {
				goto done // run ends at the crossing, before the op
			}
			c.planFetch[fpN], c.planFetchPC[fpN] = uint16(o), pc
			fpN++
			buildLine = pc &^ lineMask
		}
		// Load-use hazard of the first continuation op — whether the
		// straight-line successor or a chained loop head — the only place
		// one can occur in this run: pure-ALU instructions never arm it.
		// When the run ends at the access alone, the armed state carries
		// to the stepped path instead.
		if c.lastLoadArmed && idx < end {
			c.lastLoadArmed = false
			if c.loadUse > 0 && code[idx].Meta.ReadMask&(1<<c.lastLoadReg) != 0 {
				for lu := c.loadUse; lu > 0; lu-- {
					planLU[o>>6] |= uint64(1) << (o & 63)
					o++
				}
			}
		}
	}

	// Pure-ALU segments (each with a run-ending branch, which
	// CompileBlocks only admits as the final op), chained across control
	// transfers while chainTo admits the next segment. The switch mirrors
	// the stepped one in core.go exactly, on run-local pc; arms that
	// cannot appear inside a compiled run (memory ops, TRAP, WFE, MFSPR)
	// are absent, and unknown opcodes end the run so the stepped path
	// faults at the exact cycle.
seg:
	for {
		for idx < end {
			if checkLine && pc&^lineMask != buildLine {
				// The op issues from a line the run has not fetched yet:
				// record a fetch point at its issue offset for the plan
				// gate to consult the I$ live, or end the run at the
				// crossing when the plan's fetch budget is full.
				if fpN == planFetchCap {
					break seg
				}
				c.planFetch[fpN], c.planFetchPC[fpN] = uint16(o), pc
				fpN++
				buildLine = pc &^ lineMask
			}
			d := &code[idx]
			in := d.In
			a := c.reg(in.Ra)
			b := c.reg(in.Rb)
			next := pc + 4
			extra := int(d.Meta.Cyc) - 1
			cond, ind := false, false

			switch in.Op {
			case isa.NOP:

			case isa.J:
				next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
				extra += c.timeJump
			case isa.JAL:
				c.setReg(isa.LR, pc+4)
				next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
				extra += c.timeJump
			case isa.JR:
				next = a
				extra += c.timeJump
				ind = true
			case isa.JALR:
				c.setReg(in.Rd, pc+4)
				next = a
				extra += c.timeJump
				ind = true
			case isa.BF, isa.BNF:
				taken := c.Flag == (in.Op == isa.BF)
				if taken {
					next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
					extra += c.timeBranch
				}
				cond = true

			case isa.SFEQ:
				c.Flag = a == b
			case isa.SFNE:
				c.Flag = a != b
			case isa.SFLTS:
				c.Flag = int32(a) < int32(b)
			case isa.SFLES:
				c.Flag = int32(a) <= int32(b)
			case isa.SFGTS:
				c.Flag = int32(a) > int32(b)
			case isa.SFGES:
				c.Flag = int32(a) >= int32(b)
			case isa.SFLTU:
				c.Flag = a < b
			case isa.SFLEU:
				c.Flag = a <= b
			case isa.SFGTU:
				c.Flag = a > b
			case isa.SFGEU:
				c.Flag = a >= b
			case isa.SFEQI:
				c.Flag = a == uint32(in.Imm)
			case isa.SFNEI:
				c.Flag = a != uint32(in.Imm)
			case isa.SFLTSI:
				c.Flag = int32(a) < in.Imm
			case isa.SFLESI:
				c.Flag = int32(a) <= in.Imm
			case isa.SFGTSI:
				c.Flag = int32(a) > in.Imm
			case isa.SFGESI:
				c.Flag = int32(a) >= in.Imm
			case isa.SFLTUI:
				c.Flag = a < uint32(in.Imm)
			case isa.SFGEUI:
				c.Flag = a >= uint32(in.Imm)

			case isa.ADD:
				c.setReg(in.Rd, a+b)
			case isa.SUB:
				c.setReg(in.Rd, a-b)
			case isa.AND:
				c.setReg(in.Rd, a&b)
			case isa.OR:
				c.setReg(in.Rd, a|b)
			case isa.XOR:
				c.setReg(in.Rd, a^b)
			case isa.SLL:
				c.setReg(in.Rd, a<<(b&31))
			case isa.SRL:
				c.setReg(in.Rd, a>>(b&31))
			case isa.SRA:
				c.setReg(in.Rd, uint32(int32(a)>>(b&31)))
			case isa.MUL:
				c.setReg(in.Rd, uint32(int32(a)*int32(b)))
			case isa.DIV:
				c.setReg(in.Rd, divS(a, b))
			case isa.DIVU:
				c.setReg(in.Rd, divU(a, b))
			case isa.MIN:
				if int32(a) < int32(b) {
					c.setReg(in.Rd, a)
				} else {
					c.setReg(in.Rd, b)
				}
			case isa.MAX:
				if int32(a) > int32(b) {
					c.setReg(in.Rd, a)
				} else {
					c.setReg(in.Rd, b)
				}
			case isa.MINU:
				if a < b {
					c.setReg(in.Rd, a)
				} else {
					c.setReg(in.Rd, b)
				}
			case isa.MAXU:
				if a > b {
					c.setReg(in.Rd, a)
				} else {
					c.setReg(in.Rd, b)
				}
			case isa.MAC:
				c.setReg(in.Rd, uint32(int32(c.reg(in.Rd))+int32(a)*int32(b)))
			case isa.MSU:
				c.setReg(in.Rd, uint32(int32(c.reg(in.Rd))-int32(a)*int32(b)))
			case isa.SEXTB:
				c.setReg(in.Rd, uint32(int32(int8(a))))
			case isa.SEXTH:
				c.setReg(in.Rd, uint32(int32(int16(a))))

			case isa.ADDI:
				c.setReg(in.Rd, a+uint32(in.Imm))
			case isa.ANDI:
				c.setReg(in.Rd, a&uint32(in.Imm))
			case isa.ORI:
				c.setReg(in.Rd, a|uint32(in.Imm))
			case isa.XORI:
				c.setReg(in.Rd, a^uint32(in.Imm))
			case isa.SLLI:
				c.setReg(in.Rd, a<<(uint32(in.Imm)&31))
			case isa.SRLI:
				c.setReg(in.Rd, a>>(uint32(in.Imm)&31))
			case isa.SRAI:
				c.setReg(in.Rd, uint32(int32(a)>>(uint32(in.Imm)&31)))
			case isa.MOVHI:
				c.setReg(in.Rd, uint32(in.Imm)<<16)
			case isa.ORIL:
				c.setReg(in.Rd, c.reg(in.Rd)|uint32(in.Imm)&0xffff)

			case isa.MACS:
				c.Acc += int64(int32(a)) * int64(int32(b))
			case isa.MACU:
				c.Acc += int64(uint64(a) * uint64(b))
			case isa.MACCLR:
				c.Acc = 0
			case isa.MACRDL:
				c.setReg(in.Rd, uint32(c.Acc))
			case isa.MACRDH:
				c.setReg(in.Rd, uint32(uint64(c.Acc)>>32))

			case isa.DOTP4B:
				s := int32(c.reg(in.Rd))
				s += int32(int8(a)) * int32(int8(b))
				s += int32(int8(a>>8)) * int32(int8(b>>8))
				s += int32(int8(a>>16)) * int32(int8(b>>16))
				s += int32(int8(a>>24)) * int32(int8(b>>24))
				c.setReg(in.Rd, uint32(s))
			case isa.DOTP2H:
				s := int32(c.reg(in.Rd))
				s += int32(int16(a)) * int32(int16(b))
				s += int32(int16(a>>16)) * int32(int16(b>>16))
				c.setReg(in.Rd, uint32(s))
			case isa.ADD4B:
				out := uint32(uint8(a + b))
				out |= uint32(uint8(a>>8+b>>8)) << 8
				out |= uint32(uint8(a>>16+b>>16)) << 16
				out |= uint32(uint8(a>>24+b>>24)) << 24
				c.setReg(in.Rd, out)
			case isa.SUB4B:
				out := uint32(uint8(a - b))
				out |= uint32(uint8(a>>8-b>>8)) << 8
				out |= uint32(uint8(a>>16-b>>16)) << 16
				out |= uint32(uint8(a>>24-b>>24)) << 24
				c.setReg(in.Rd, out)
			case isa.ADD2H:
				out := uint32(uint16(a + b))
				out |= uint32(uint16(a>>16+b>>16)) << 16
				c.setReg(in.Rd, out)
			case isa.SUB2H:
				out := uint32(uint16(a - b))
				out |= uint32(uint16(a>>16-b>>16)) << 16
				c.setReg(in.Rd, out)
			case isa.SRA2H:
				sh := b & 15
				out := uint32(uint16(int16(a) >> sh))
				out |= uint32(uint16(int16(a>>16)>>sh)) << 16
				c.setReg(in.Rd, out)

			case isa.LPSETUP:
				i := int(in.Rd)
				c.lp[i] = hwLoop{
					start: pc + 4,
					end:   pc + 4 + uint32(in.Imm)*4,
					count: a,
				}
				if a == 0 {
					next = pc + 4 + uint32(in.Imm)*4
					c.lpEnd[i] = lpInactive
				} else {
					c.lpEnd[i] = c.lp[i].end
				}

			default:
				break seg
			}

			planIssue[o>>6] |= uint64(1) << (o & 63)
			o++
			if extra > 0 {
				// Trailing cycles of a multi-cycle op or taken-branch
				// penalty: Issue-class stalls, the clear bits of the plan
				// window.
				o += uint64(extra)
			}
			if next == c.lpEnd[0] || next == c.lpEnd[1] {
				next = c.lpWrap(next)
			}
			idx++
			if next != pc+4 {
				// Taken branch, jump or hardware-loop wraparound: the
				// segment ends; chain when chainTo admits the target —
				// unconditional edges statically, conditional ones once
				// hot, indirect jumps never (their targets are not
				// statically predictable control flow).
				pc = next
				if ind || (cond && !c.hotEdge(idx-1)) {
					break seg
				}
				nidx, nend, ok := c.chainTo(pc, o)
				if !ok {
					break seg
				}
				idx, end = nidx, nend
				continue seg
			}
			pc = next
			if cond {
				// Fall-through conditional: the run still ends at the
				// branch inclusively; the fall-through edge chains under
				// the same hot counter as the taken one.
				if !c.hotEdge(idx - 1) {
					break seg
				}
				nidx, nend, ok := c.chainTo(pc, o)
				if !ok {
					break seg
				}
				idx, end = nidx, nend
				continue seg
			}
		}
		// Natural segment end: the Multi run was exhausted without a
		// control transfer — the successor heads its own run (a clamp
		// cut, or a mem-led / fuse-break / illegal leader). Chain through
		// clamp cuts; everything else falls back to the stepped path.
		nidx, nend, ok := c.chainTo(pc, o)
		if !ok {
			break
		}
		idx, end = nidx, nend
	}

done:
	if o == 0 {
		return 0, false
	}
	c.PC = pc
	// Charge the dispatch cycle now (always an issue: the first op's
	// hazard was resolved by Step before dispatch); defer the rest of the
	// window to the charge plan.
	c.Stats.Active++
	c.Stats.Retired++
	if ob := c.Obs; ob != nil {
		ob.Tick(obs.Issue)
	}
	if o > 1 {
		c.stallUntil = now + o
		c.stallClass = obs.Issue
		c.planOn = true
		c.planStart = now
		c.planCursor = now + 1
		c.planIssue, c.planLU, c.planEM = planIssue, planLU, planEM
		c.planFetchN, c.planFetchI, c.planICStall = fpN, 0, 0
		c.planFetchAt = NextEventNever
		if fpN > 0 {
			// The hint caps at the first fetch point: the core touches
			// the shared I$ there and must be stepped live at that cycle.
			c.planFetchAt = now + uint64(c.planFetch[0])
			return c.planFetchAt, true
		}
		return now + o, true
	}
	return now + 1, true
}

// runFusedSolo executes straight-line code from the current PC while the
// core is the cluster's sole actor until winHorizon (everyone else
// halted, asleep or mid-stall, DMA idle — maintained by the cluster in
// c.Solo/SetSoloWindow): bank arbitration cannot deny the only
// requester, so memory accesses complete anywhere in the run, and taken
// branches and hardware-loop wraparounds are chased instead of ending
// it. The whole window is batch-charged at exit (per-class counters,
// clamped against the run-loop horizon so a maxCycles budget cuts the
// charges exactly where it would have cut stepped execution — but NOT
// against the solo window end: the cycles past it are still simulated,
// so a multi-cycle tail spilling across the window end is charged in
// full) and stallAccounted tells Step's gate and CreditIdle the window
// is already paid for.
//
// Fetch-line boundaries do not end a solo run: the core is the cluster's
// only agent, so consulting the shared I$ at the exact issue cycle is
// indistinguishable from the stepped fetch — a hit is free (Hits counts),
// a miss charges its refill window here (class ICache) and the chase
// resumes at the refill-complete cycle, exactly as the stepped stall gate
// would have. Only a miss whose refill lands past the issue limit hands
// back to the stepped path mid-refill (with fetchedLine unset, so the
// stepped retry re-fetches and scores the same hit).
//
// The run ends at the issue limit (run-loop horizon or solo window end,
// whichever is earlier), at a fuse-break or illegal or unknown
// instruction, and at any non-TCDM or faulting access — all handed back
// to the stepped path at their exact cycle.
func (c *Core) runFusedSolo(now uint64) (uint64, bool) {
	if c.Trace != nil {
		return 0, false
	}
	code := c.code
	pc := c.PC
	t := now
	horizon := c.horizon
	lim := horizon
	if c.winHorizon < lim {
		lim = c.winHorizon
	}
	idx := (pc - c.base) / 4
	var nIssue, nStall, cLU, cEM, cIC uint64

loop:
	for t < lim {
		if idx >= uint32(len(code)) {
			break
		}
		if ic := c.IC; nIssue > 0 && ic != nil &&
			(c.FetchLineMask == 0 || pc&^c.FetchLineMask != c.fetchedLine) {
			// Crossed into a new fetch line: mirror the stepped fetch,
			// including its retry-on-refill shape (miss, stall to the
			// refill-complete cycle, re-fetch scoring a hit). Probe is
			// the inlined ready-hit fast path, as in the stepped fetch.
			for !ic.Probe(pc, t) {
				done := ic.Fetch(pc, t)
				if done <= t {
					break
				}
				ch := done - t
				if t+ch > horizon {
					ch = horizon - t
				}
				nStall += ch
				cIC += ch
				if ob := c.Obs; ob != nil && ob.TL != nil {
					ob.TL.Span(ob.Tid, "I$ refill", "stall", t, done, nil)
				}
				t = done
				if t >= lim {
					break loop
				}
			}
			c.fetchedLine = pc &^ c.FetchLineMask
		}
		d := &code[idx]
		m := d.Meta
		if m.Flags&(MetaIllegal|MetaFuseBreak) != 0 {
			break
		}
		in := d.In

		// Load-use hazard against the previous in-run load (the first op
		// cannot hazard: Step resolved its gate before dispatching).
		if c.lastLoadArmed {
			c.lastLoadArmed = false
			if c.loadUse > 0 && m.ReadMask&(1<<c.lastLoadReg) != 0 {
				ch := c.loadUse
				if t+ch > horizon {
					ch = horizon - t
				}
				nStall += ch
				cLU += ch
				t += c.loadUse
				if t >= lim {
					break
				}
			}
		}

		if m.Flags&MetaMem != 0 {
			size := uint32(m.Size)
			var addr uint32
			if m.Flags&MetaPostIncr != 0 {
				addr = c.reg(in.Ra)
			} else {
				addr = c.reg(in.Ra) + uint32(in.Imm)
			}
			if m.Flags&MetaChkAlign != 0 && addr&(size-1) != 0 {
				break // fault via the stepped path at the exact cycle
			}
			tm := c.TCDM
			if tm == nil || !tm.Contains(addr, size) {
				break // env dispatch (event unit, DMA, SoC, L2) steps
			}
			// The sole requester always wins arbitration: count the access
			// without the bank Request (whose per-cycle conflict state only
			// the cluster loop resets).
			tm.Accesses++
			if m.Flags&MetaStore != 0 {
				tm.Write(addr, size, c.reg(in.Rb))
			} else {
				rdata := tm.Read(addr, size)
				var v uint32
				switch in.Op {
				case isa.LBZ, isa.LBZP:
					v = rdata & 0xff
				case isa.LBS, isa.LBSP:
					v = uint32(int32(int8(rdata)))
				case isa.LHZ, isa.LHZP:
					v = rdata & 0xffff
				case isa.LHS, isa.LHSP:
					v = uint32(int32(int16(rdata)))
				default:
					v = rdata
				}
				c.setReg(in.Rd, v)
				c.lastLoadReg = in.Rd
				c.lastLoadArmed = true
			}
			if m.Flags&MetaPostIncr != 0 {
				c.setReg(in.Ra, c.reg(in.Ra)+uint32(in.Imm))
			}
			nIssue++
			t++
			if addr&(size-1) != 0 {
				// Unaligned access: second bank cycle, attributed ExtMem.
				if t < horizon {
					nStall++
					cEM++
				}
				t++
			}
			next := pc + 4
			if next == c.lpEnd[0] || next == c.lpEnd[1] {
				next = c.lpWrap(next)
			}
			if next == pc+4 {
				idx++
			} else {
				idx = (next - c.base) / 4
			}
			pc = next
			continue
		}

		// Non-memory execute: the switch mirrors the stepped one in core.go
		// exactly; TRAP, WFE and MFSPR carry MetaFuseBreak and never reach
		// it, unknown opcodes end the run so the stepped path faults at the
		// exact cycle.
		a := c.reg(in.Ra)
		b := c.reg(in.Rb)
		next := pc + 4
		extra := int(m.Cyc) - 1

		switch in.Op {
		case isa.NOP:

		case isa.J:
			next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
			extra += c.timeJump
		case isa.JAL:
			c.setReg(isa.LR, pc+4)
			next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
			extra += c.timeJump
		case isa.JR:
			next = a
			extra += c.timeJump
		case isa.JALR:
			c.setReg(in.Rd, pc+4)
			next = a
			extra += c.timeJump
		case isa.BF, isa.BNF:
			taken := c.Flag == (in.Op == isa.BF)
			if taken {
				next = uint32(int64(pc) + 4 + int64(in.Imm)*4)
				extra += c.timeBranch
			}

		case isa.SFEQ:
			c.Flag = a == b
		case isa.SFNE:
			c.Flag = a != b
		case isa.SFLTS:
			c.Flag = int32(a) < int32(b)
		case isa.SFLES:
			c.Flag = int32(a) <= int32(b)
		case isa.SFGTS:
			c.Flag = int32(a) > int32(b)
		case isa.SFGES:
			c.Flag = int32(a) >= int32(b)
		case isa.SFLTU:
			c.Flag = a < b
		case isa.SFLEU:
			c.Flag = a <= b
		case isa.SFGTU:
			c.Flag = a > b
		case isa.SFGEU:
			c.Flag = a >= b
		case isa.SFEQI:
			c.Flag = a == uint32(in.Imm)
		case isa.SFNEI:
			c.Flag = a != uint32(in.Imm)
		case isa.SFLTSI:
			c.Flag = int32(a) < in.Imm
		case isa.SFLESI:
			c.Flag = int32(a) <= in.Imm
		case isa.SFGTSI:
			c.Flag = int32(a) > in.Imm
		case isa.SFGESI:
			c.Flag = int32(a) >= in.Imm
		case isa.SFLTUI:
			c.Flag = a < uint32(in.Imm)
		case isa.SFGEUI:
			c.Flag = a >= uint32(in.Imm)

		case isa.ADD:
			c.setReg(in.Rd, a+b)
		case isa.SUB:
			c.setReg(in.Rd, a-b)
		case isa.AND:
			c.setReg(in.Rd, a&b)
		case isa.OR:
			c.setReg(in.Rd, a|b)
		case isa.XOR:
			c.setReg(in.Rd, a^b)
		case isa.SLL:
			c.setReg(in.Rd, a<<(b&31))
		case isa.SRL:
			c.setReg(in.Rd, a>>(b&31))
		case isa.SRA:
			c.setReg(in.Rd, uint32(int32(a)>>(b&31)))
		case isa.MUL:
			c.setReg(in.Rd, uint32(int32(a)*int32(b)))
		case isa.DIV:
			c.setReg(in.Rd, divS(a, b))
		case isa.DIVU:
			c.setReg(in.Rd, divU(a, b))
		case isa.MIN:
			if int32(a) < int32(b) {
				c.setReg(in.Rd, a)
			} else {
				c.setReg(in.Rd, b)
			}
		case isa.MAX:
			if int32(a) > int32(b) {
				c.setReg(in.Rd, a)
			} else {
				c.setReg(in.Rd, b)
			}
		case isa.MINU:
			if a < b {
				c.setReg(in.Rd, a)
			} else {
				c.setReg(in.Rd, b)
			}
		case isa.MAXU:
			if a > b {
				c.setReg(in.Rd, a)
			} else {
				c.setReg(in.Rd, b)
			}
		case isa.MAC:
			c.setReg(in.Rd, uint32(int32(c.reg(in.Rd))+int32(a)*int32(b)))
		case isa.MSU:
			c.setReg(in.Rd, uint32(int32(c.reg(in.Rd))-int32(a)*int32(b)))
		case isa.SEXTB:
			c.setReg(in.Rd, uint32(int32(int8(a))))
		case isa.SEXTH:
			c.setReg(in.Rd, uint32(int32(int16(a))))

		case isa.ADDI:
			c.setReg(in.Rd, a+uint32(in.Imm))
		case isa.ANDI:
			c.setReg(in.Rd, a&uint32(in.Imm))
		case isa.ORI:
			c.setReg(in.Rd, a|uint32(in.Imm))
		case isa.XORI:
			c.setReg(in.Rd, a^uint32(in.Imm))
		case isa.SLLI:
			c.setReg(in.Rd, a<<(uint32(in.Imm)&31))
		case isa.SRLI:
			c.setReg(in.Rd, a>>(uint32(in.Imm)&31))
		case isa.SRAI:
			c.setReg(in.Rd, uint32(int32(a)>>(uint32(in.Imm)&31)))
		case isa.MOVHI:
			c.setReg(in.Rd, uint32(in.Imm)<<16)
		case isa.ORIL:
			c.setReg(in.Rd, c.reg(in.Rd)|uint32(in.Imm)&0xffff)

		case isa.MACS:
			c.Acc += int64(int32(a)) * int64(int32(b))
		case isa.MACU:
			c.Acc += int64(uint64(a) * uint64(b))
		case isa.MACCLR:
			c.Acc = 0
		case isa.MACRDL:
			c.setReg(in.Rd, uint32(c.Acc))
		case isa.MACRDH:
			c.setReg(in.Rd, uint32(uint64(c.Acc)>>32))

		case isa.DOTP4B:
			s := int32(c.reg(in.Rd))
			s += int32(int8(a)) * int32(int8(b))
			s += int32(int8(a>>8)) * int32(int8(b>>8))
			s += int32(int8(a>>16)) * int32(int8(b>>16))
			s += int32(int8(a>>24)) * int32(int8(b>>24))
			c.setReg(in.Rd, uint32(s))
		case isa.DOTP2H:
			s := int32(c.reg(in.Rd))
			s += int32(int16(a)) * int32(int16(b))
			s += int32(int16(a>>16)) * int32(int16(b>>16))
			c.setReg(in.Rd, uint32(s))
		case isa.ADD4B:
			out := uint32(uint8(a + b))
			out |= uint32(uint8(a>>8+b>>8)) << 8
			out |= uint32(uint8(a>>16+b>>16)) << 16
			out |= uint32(uint8(a>>24+b>>24)) << 24
			c.setReg(in.Rd, out)
		case isa.SUB4B:
			out := uint32(uint8(a - b))
			out |= uint32(uint8(a>>8-b>>8)) << 8
			out |= uint32(uint8(a>>16-b>>16)) << 16
			out |= uint32(uint8(a>>24-b>>24)) << 24
			c.setReg(in.Rd, out)
		case isa.ADD2H:
			out := uint32(uint16(a + b))
			out |= uint32(uint16(a>>16+b>>16)) << 16
			c.setReg(in.Rd, out)
		case isa.SUB2H:
			out := uint32(uint16(a - b))
			out |= uint32(uint16(a>>16-b>>16)) << 16
			c.setReg(in.Rd, out)
		case isa.SRA2H:
			sh := b & 15
			out := uint32(uint16(int16(a) >> sh))
			out |= uint32(uint16(int16(a>>16)>>sh)) << 16
			c.setReg(in.Rd, out)

		case isa.LPSETUP:
			i := int(in.Rd)
			c.lp[i] = hwLoop{
				start: pc + 4,
				end:   pc + 4 + uint32(in.Imm)*4,
				count: a,
			}
			if a == 0 {
				next = pc + 4 + uint32(in.Imm)*4
				c.lpEnd[i] = lpInactive
			} else {
				c.lpEnd[i] = c.lp[i].end
			}

		default:
			break loop
		}

		nIssue++
		t++
		if extra > 0 {
			// Trailing cycles of a multi-cycle op or branch penalty: they
			// stall the next issue; charge only what fits the horizon.
			ch := uint64(extra)
			if t+ch > horizon {
				ch = horizon - t
			}
			nStall += ch
			t += uint64(extra)
		}
		if next == c.lpEnd[0] || next == c.lpEnd[1] {
			next = c.lpWrap(next)
		}
		if next == pc+4 {
			idx++
		} else {
			idx = (next - c.base) / 4
		}
		pc = next
	}

	if nIssue == 0 {
		return 0, false
	}
	c.PC = pc
	c.Stats.Active += nIssue
	c.Stats.Retired += nIssue
	c.Stats.Stall += nStall
	if ob := c.Obs; ob != nil {
		ob.Credit(obs.Issue, nIssue+nStall-cLU-cEM-cIC)
		if cLU > 0 {
			ob.Credit(obs.LoadUse, cLU)
		}
		if cEM > 0 {
			ob.Credit(obs.ExtMem, cEM)
		}
		if cIC > 0 {
			ob.Credit(obs.ICache, cIC)
		}
	}
	if t > now+1 {
		c.stallUntil = t
		c.stallClass = obs.Issue
		c.stallAccounted = true
		return t, true
	}
	return now + 1, true
}
