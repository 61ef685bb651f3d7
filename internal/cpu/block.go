// Fused execution (DESIGN.md §12). A core that nothing else can disturb
// runs a whole trace — across memory accesses, taken branches and
// hardware-loop wraparounds — in one runFused call instead of paying the
// Step gate/fetch/decode prologue once per instruction. The cluster's one
// scheduler grants that licence in two modes: a solo run, when the core is
// the only awake one and the DMA is idle (RunSolo), and an optimistic
// window, in which every awake core runs alone in turn and the cluster
// commits only what no other core could have observed (RunWindow,
// window.go). Cycle counts, stats and the 9-class obs attribution stay
// bit-identical to stepped execution: everything that interacts with
// shared cluster state (I$ refills in windows, sleep/wake, DMA and
// event-unit registers, SPR reads, L2, faults) breaks the run back to the
// stepped path at its exact cycle.
// runFused's switch is the one copy of the non-memory instruction
// semantics: Step calls it for a single cycle to execute each such op.
package cpu

import (
	"sync/atomic"

	"hetsim/internal/isa"
	"hetsim/internal/obs"
	"hetsim/internal/prof"
)

// Compiled is everything derived from a program text for one target: the
// predecoded instruction stream. It is immutable after Compile and safe to
// share across cores and processes' worth of sweep jobs.
type Compiled struct {
	Code []Decoded
}

// Compiles counts Compile invocations process-wide; the kernels-package
// memo test pins that one image compiles exactly once under a parallel
// sweep.
var Compiles atomic.Uint64

// Compile predecodes a text segment. The work runs under the
// "block-compile" pprof label so compile time is separable from
// simulation time in -cpuprofile output.
func Compile(text []isa.Inst, target isa.Target) *Compiled {
	Compiles.Add(1)
	var comp *Compiled
	prof.Label("block-compile", func() {
		comp = &Compiled{Code: Predecode(text, target)}
	})
	return comp
}

// charge is a batch of cycle charges: issued instructions (Active,
// Retired, Issue class) plus stall cycles per attribution class.
type charge struct {
	issue uint64
	stall [obs.NumClasses]uint64
}

// apply books a batch of charges into Stats and the attribution.
func (c *Core) apply(ch *charge) {
	c.Stats.Active += ch.issue
	c.Stats.Retired += ch.issue
	var stall uint64
	for _, n := range ch.stall {
		stall += n
	}
	c.Stats.Stall += stall
	if o := c.Obs; o != nil {
		o.Credit(obs.Issue, ch.issue)
		for cl, n := range ch.stall {
			if n > 0 {
				o.Credit(obs.Class(cl), n)
			}
		}
	}
}

// RunSolo runs the core alone from cycle t, with no instruction issuing
// at or past lim: the cluster's only awake core while the DMA is idle. It
// returns the cycle the run reached — lim, or an earlier cycle at which
// the next instruction needs the stepped path. The charges are held until
// Commit, as a window run's are.
func (c *Core) RunSolo(t, lim uint64) uint64 { return c.run(t, lim, nil) }

// run is the one body of RunSolo and RunWindow: a stall the core is in at
// t elapses first, a parked TCDM access retries as the run's first access,
// then the core runs fused up to lim, its charges held in c.held. It
// returns lim or the earlier cycle at which the run stopped; a parked
// access outside the TCDM (a spinning mutex) stops it at once.
func (c *Core) run(t, lim uint64, w *Window) uint64 {
	c.held = charge{}
	if c.stallUntil > t {
		if from := max(t, c.acctUntil); lim > from {
			c.held.stall[c.stallClass] += min(c.stallUntil, lim) - from
		}
		if c.stallUntil >= lim {
			c.acctUntil = max(c.acctUntil, lim)
			return lim
		}
		t = c.stallUntil
	}
	if c.hasPending {
		if p := &c.pending; !c.TCDM.Contains(p.addr, uint32(p.m.Size)) {
			return t
		}
		// The retry re-issues the parked op from the PC: its registers,
		// fetch and hazard state are what they were when it parked.
		c.hasPending = false
	}
	end := c.runFused(t, lim, w, &c.held)
	if end > t {
		c.stallUntil = end
		c.acctUntil = min(end, lim)
	}
	return min(end, lim)
}

// runFused executes from the core's state at cycle t — not stalled, no
// parked access — and returns the cycle at which it stopped, adding what
// it simulated below lim to ch. No instruction issues at or past lim;
// only the trailing stall of the last one may run past it, and that stall
// is left to the caller (stallUntil is the returned cycle, stallClass its
// class). Its fetch through the line buffer and its load-use hazard
// reproduce the stepped path in core.go, which the tier differentials
// check; its op switch is the only one, which Step also runs, one cycle
// at a time (lim = t+1, fetch buffered and hazard consumed), and which the
// oracle in cpu_test.go checks.
//
// The run also stops — before doing anything at that cycle — at a
// fuse-break, illegal or unknown instruction, a fetch outside the text,
// and any access outside the TCDM or one that faults: the stepped path
// takes each at its exact cycle.
//
// w selects the mode. Solo (w == nil): bank arbitration cannot deny the
// only awake requester, so accesses complete anywhere in the run, and I$
// misses are charged here, the chase resuming at the refill-complete cycle
// exactly as the stepped stall gate would (only a refill that lands past
// lim hands back mid-refill, with fetchedLine unset, so the stepped retry
// re-fetches and scores the same hit). Window (w != nil): the run is one
// participant of an optimistic window, so every TCDM access is logged
// through w, which arbitrates banks against the accesses other cores
// already made and refuses an access it cannot order, and an I$ fetch
// that is not a ready hit stops the run: a miss mutates cache state the
// other cores would observe.
func (c *Core) runFused(t, lim uint64, w *Window, ch *charge) uint64 {
	code := c.code
	pc := c.PC
	idx := (pc - c.base) / 4
	// Stalls are charged straight into ch, by class: they are rare next to
	// issues, and a counter per class held live across the loop would
	// spill the registers the issue path needs.
	var nIssue uint64
	tail := obs.Issue // class of the last stall, the only one that may cross lim

loop:
	for t < lim {
		if idx >= uint32(len(code)) {
			break
		}
		if ic := c.IC; ic != nil && pc&^c.FetchLineMask != c.fetchedLine {
			// A new fetch line: mirror the stepped fetch, including its
			// retry-on-refill shape (miss, stall to the refill-complete
			// cycle, re-fetch scoring a hit). Probe is the inlined
			// ready-hit fast path, as in the stepped fetch.
			for !ic.Probe(pc, t) {
				if w != nil {
					break loop
				}
				done := ic.Fetch(pc, t)
				if done <= t {
					break
				}
				ch.stall[obs.ICache] += done - t
				tail = obs.ICache
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

		// Load-use hazard against the previous load.
		if c.lastLoadArmed {
			c.lastLoadArmed = false
			if c.loadUse > 0 && m.ReadMask&(1<<c.lastLoadReg) != 0 {
				ch.stall[obs.LoadUse] += c.loadUse
				tail = obs.LoadUse
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
			store := m.Flags&MetaStore != 0
			// A solo requester always wins arbitration; a window
			// participant goes through the window's log instead. Either
			// way the bank Request, whose per-cycle state only the
			// cluster loop resets, is bypassed.
			if w != nil {
				switch w.claim(c.ID, t, addr, size, store) {
				case claimCut:
					break loop
				case claimDenied:
					// Parked for one cycle, then the same op retries.
					tm.Conflicts++
					ch.stall[obs.Conflict]++
					tail = obs.Conflict
					t++
					continue
				}
			}
			tm.Accesses++
			if store {
				tm.Write(addr, size, c.reg(in.Rb))
			} else {
				c.setReg(in.Rd, loadExt(in.Op, tm.Read(addr, size)))
				c.lastLoadReg = in.Rd
				c.lastLoadArmed = true
			}
			if m.Flags&MetaPostIncr != 0 {
				// Re-read Ra: a post-incrementing load with Rd == Ra must
				// increment the loaded value, exactly as the stepped path.
				c.setReg(in.Ra, c.reg(in.Ra)+uint32(in.Imm))
			}
			nIssue++
			t++
			if addr&(size-1) != 0 {
				// Unaligned access: second bank cycle, attributed ExtMem.
				ch.stall[obs.ExtMem]++
				tail = obs.ExtMem
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

		// Non-memory execute, the one copy of the semantics: TRAP, WFE and
		// MFSPR carry MetaFuseBreak and never reach it (Step executes them),
		// an unknown opcode ends the run without executing, and Step faults.
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
			// stall the next issue, attributed Issue.
			ch.stall[obs.Issue] += uint64(extra)
			tail = obs.Issue
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

	c.PC = pc
	if t > lim {
		// The last stall crosses the issue limit: keep only its cycles
		// below lim here; the rest stays a plain stall of its class.
		ch.stall[tail] -= t - lim
		c.stallClass = tail
	}
	ch.issue += nIssue
	return t
}
