// Package cpu implements the in-order core model that executes the ISA of
// internal/isa. The same interpreter, parameterized by an isa.Target,
// models the OR10N cores of the PULP cluster (with MAC, SIMD, hardware
// loops and post-increment addressing), the plain-RISC configuration used
// to count Table I's RISC operations, and the Cortex-M3/M4 hosts.
//
// The core is cycle-stepped: the surrounding cluster calls Step once per
// cycle, and memory accesses go through an environment interface that
// performs TCDM bank arbitration, I/O dispatch and sleep control.
package cpu

import (
	"fmt"
	"math/bits"

	"hetsim/internal/isa"
	"hetsim/internal/mem"
	"hetsim/internal/obs"
)

// Status is the outcome of a data-memory access attempt.
type Status uint8

const (
	// AccessOK: the access completed this cycle (extra pipeline cycles may
	// still be reported separately).
	AccessOK Status = iota
	// AccessRetry: structural stall (bank conflict, mutex spin); the core
	// retries the same access next cycle.
	AccessRetry
	// AccessSleepBarrier: the store was a barrier arrival that did not
	// complete the barrier; the core must sleep until woken.
	AccessSleepBarrier
	// AccessRetrySync: like AccessRetry, but the denial is a
	// synchronization spin (contended hardware mutex) rather than a bank
	// conflict — the retry cycles attribute to obs.Sync, not obs.Conflict.
	AccessRetrySync
)

// Env is the cluster-side environment a core executes in.
type Env interface {
	// Access performs a data access for the given core at the current
	// cycle. extra is the number of additional stall cycles the access
	// costs beyond the issuing cycle (e.g. L2 latency).
	Access(core int, store bool, addr, size, wdata uint32) (rdata uint32, extra int, st Status, err error)
	// WFE reports whether the core must sleep (no pending event latch).
	WFE(core int) (sleep bool)
	// SPR reads a special-purpose register.
	SPR(core int, spr int32) uint32
}

// SleepKind distinguishes why a core is asleep.
type SleepKind uint8

const (
	Awake SleepKind = iota
	SleepEvent
	SleepBarrier
)

type hwLoop struct {
	start, end uint32
	count      uint32
}

// memOp is a parked (bank-conflicted) access awaiting retry. The hot
// grant path never materializes one: the access travels as scalar
// arguments and only lands here when denied.
type memOp struct {
	in    isa.Inst
	m     InstMeta
	addr  uint32
	wdata uint32
}

// NextEventNever is the step hint of a core that cannot make progress on
// its own (halted, or asleep until an external wake).
const NextEventNever = ^uint64(0)

// Stats are the core's performance counters (the per-component activity
// ratios chi of the paper's power model are derived from these).
type Stats struct {
	Retired uint64 // instructions retired
	Active  uint64 // cycles doing work (issue or multi-cycle execute)
	Stall   uint64 // cycles stalled (conflicts, hazards, I$ misses)
	Sleep   uint64 // cycles asleep in WFE/barrier
}

// Core is one simulated core. Field order is deliberate: the scalars the
// per-cycle Step gate and fetch path touch sit first so they share cache
// lines, followed by the register file and per-instruction state; the
// large, cold Target descriptor and error/trace plumbing go last.
type Core struct {
	PC   uint32
	base uint32

	sleep         SleepKind
	Halted        bool
	hasPending    bool
	lastLoadArmed bool
	lastLoadReg   isa.Reg
	Flag          bool

	// stallAccounted marks the current stallUntil window as pre-charged by
	// a solo fused run (block.go): Step's stall gate and CreditIdle must
	// not charge those cycles again.
	stallAccounted bool
	// planOn marks the plan* fields below as valid: the current stallUntil
	// window came from a multi-core fused run whose charges are deferred —
	// Step's stall gate and CreditIdle charge them cycle-exactly from the
	// plan bitmasks as the window actually elapses (and simply stop if the
	// cluster run ends mid-window, so Stats always cover exactly the
	// simulated cycles).
	planOn bool

	// stallClass is the attribution class of the current stallUntil window
	// (obs.Class). Written whenever stallUntil is set; read by the stall
	// branch of Step and by CreditIdle. Maintained unconditionally (a byte
	// store) so bulk idle credits classify correctly whenever Obs is on.
	stallClass obs.Class

	// FetchLineMask models the core's line prefetch buffer: while the PC
	// stays within the last fetched line (pc &^ mask unchanged), the cache
	// is not consulted again. 0 disables the buffer.
	FetchLineMask uint32
	fetchedLine   uint32

	stallUntil uint64
	code       []Decoded // predecoded text, see Predecode

	// blocks, when non-nil, is the fused-run table over code (block.go):
	// Step dispatches straight-line runs through runFused instead of
	// executing one instruction. The cluster only installs it when faults
	// and tracing are detached and the run loop is event-driven.
	blocks *BlockTable
	// edges are the hot-edge counters of the chained fused runs
	// (block.go), sized and cleared by SetBlocks: one saturating counter
	// per instruction, indexed by conditional-branch position, gating
	// when a taken or fall-through edge is hot enough to chain through.
	// Per-core (not shared through the memo): the counters are mutable
	// warm-up state, not compiled output.
	edges []uint8
	// horizon bounds fused execution (SetRunHorizon): no solo-fused
	// instruction issues at or past this cycle. It is the run-loop budget
	// bound — charges for a window the budget cuts off must also be cut.
	horizon uint64
	// winHorizon bounds solo fused execution inside a solo *window*
	// (SetSoloWindow): no instruction issues at or past this cycle because
	// a sibling core resumes there. Unlike horizon it only limits issue —
	// the cycles past it are still simulated, so a multi-cycle tail that
	// spills across the window end is charged in full.
	winHorizon uint64
	// Solo, maintained by the cluster at the end of every cycle, reports
	// that this core is the only possible actor until winHorizon (all
	// sibling cores halted, asleep or mid-stall, DMA idle) — the condition
	// under which a fused run may cross memory accesses, taken branches
	// and loop wraparounds freely. The condition is stable until the
	// window ends or this core itself performs an env access (waking a
	// sibling or starting the DMA), which always ends a fused run first.
	Solo bool

	// IC, when set by the cluster, is the shared instruction cache timing
	// the fetch path consults (a direct pointer rather than a func value:
	// the call is on the per-instruction path). Nil = perfect fetch.
	IC *mem.ICache
	// TCDM, when set by the cluster, short-circuits single-cycle L1
	// accesses past the Env interface dispatch: the core performs bank
	// arbitration and the data access directly, exactly as the cluster's
	// Access would. Accesses outside the TCDM still go through env.
	TCDM *mem.TCDM

	// Obs, when non-nil, receives the per-cycle attribution of this core
	// (DESIGN.md §10). Nil follows the fault-injector idiom: one pointer
	// compare per site, zero cost when observability is detached.
	Obs *obs.CoreObs

	// Pre-resolved target timing (the Target struct is too large to walk
	// on every instruction).
	loadUse    uint64
	timeJump   int
	timeBranch int

	// Deferred charge plan of the current fused multi-core run: bitmasks
	// over cycle offsets from planStart classifying each window cycle
	// (issue / load-use stall / ext-mem stall; clear bits in none of the
	// three are Issue-class stalls). planCursor is the next uncharged
	// cycle: Step's stall gate and CreditIdle consume the window in order,
	// one path or the other charging every simulated cycle exactly once.
	// planWords words give chained superblock runs a 256-cycle window
	// (maxRunSpan spills past the first word); the arrays are embedded in
	// the Core so a fused dispatch never allocates.
	planStart  uint64
	planCursor uint64
	planIssue  [planWords]uint64
	planLU     [planWords]uint64
	planEM     [planWords]uint64

	// Fetch points of the current plan: the offsets (relative to
	// planStart) at which chained execution crosses into a new I$ fetch
	// line, with the pc whose line is due. The plan gate consults the
	// shared I$ live at exactly those cycles, in the core's own rotation
	// slot — a hit is free and mutates no I$ state, a miss inserts its
	// refill window into the plan as ICache stall cycles (planICStall
	// counts the remaining ones, the cursor frozen meanwhile) and extends
	// stallUntil — so a chained run's I$ traffic interleaves with the
	// other cores bit-identically to stepped execution. planFetchI is
	// the next pending point and planFetchAt its absolute cycle (the
	// refill-retry cycle mid-refill, NextEventNever when none remain);
	// the step hint (planHint) never reaches past it, so the cluster can
	// neither fast-forward across a fetch point nor grant a sibling a
	// solo window covering one.
	planFetch   [planFetchCap]uint16
	planFetchPC [planFetchCap]uint32
	planFetchN  uint8
	planFetchI  uint8
	planFetchAt uint64
	planICStall uint64

	Regs [isa.NumRegs]uint32
	Acc  int64 // 64-bit MAC accumulator (M-profile)

	lp [2]hwLoop
	// lpEnd[i] mirrors lp[i].end while loop i is active and holds the
	// unreachable lpInactive sentinel otherwise, so the per-instruction
	// wraparound check in advancePC is two compares, no state test.
	lpEnd [2]uint32

	Stats Stats

	env     Env
	pending memOp

	ID       int
	Target   isa.Target
	TrapCode int32
	Err      error

	// Trace, when non-nil, is called once per retired instruction (before
	// the PC advances). Nil costs nothing on the hot path.
	Trace func(cycle uint64, pc uint32, in isa.Inst)

	// SleepHook, when non-nil, is called on every sleep transition: once
	// when the core goes to sleep (sleeping=true, at the transition cycle)
	// and once when it wakes (sleeping=false). Sleep transitions are rare
	// (WFE park, barrier arrival, wake), so the hook is off the hot path;
	// the cluster uses it for sleep/wake trace events and timeline spans.
	SleepHook func(now uint64, kind SleepKind, sleeping bool)
}

// New builds a core with the given id and target, attached to env.
func New(id int, target isa.Target, env Env) *Core {
	return &Core{
		ID:         id,
		Target:     target,
		env:        env,
		loadUse:    uint64(target.Time.LoadUse),
		timeJump:   target.Time.Jump,
		timeBranch: target.Time.BranchTaken,
		horizon:    NextEventNever,
		winHorizon: NextEventNever,
	}
}

// SetProgram installs the text segment, predecoding the per-instruction
// metadata for this core's target.
func (c *Core) SetProgram(text []isa.Inst, base uint32) {
	c.SetPredecoded(Predecode(text, c.Target), base)
}

// SetPredecoded installs an already-predecoded text segment (the cluster
// predecodes once and shares the slice across its cores, which all run the
// same target).
func (c *Core) SetPredecoded(code []Decoded, base uint32) {
	c.code = code
	c.base = base
}

// Start resets architectural state and begins execution at entry.
func (c *Core) Start(entry uint32) {
	c.Regs = [isa.NumRegs]uint32{}
	c.PC = entry
	c.Flag = false
	c.Acc = 0
	c.lp = [2]hwLoop{}
	c.lpEnd = [2]uint32{lpInactive, lpInactive}
	c.sleep = Awake
	c.stallUntil = 0
	c.stallClass = obs.Issue
	c.hasPending = false
	c.fetchedLine = ^uint32(0)
	c.lastLoadArmed = false
	c.stallAccounted = false
	c.planOn = false
	c.winHorizon = NextEventNever
	// c.edges is NOT reset: the hot-edge counters are compile-tier state
	// of the loaded image (like the memoized BlockTable), not architectural
	// state — a restart of the same program keeps its hot traces. They are
	// cleared by SetBlocks when an image is loaded.
	c.Halted = false
	c.TrapCode = 0
	c.Err = nil
}

// Asleep returns the core's sleep state.
func (c *Core) Asleep() SleepKind { return c.sleep }

// Sleeping reports whether the core is asleep.
func (c *Core) Sleeping() bool { return c.sleep != Awake }

// Wake wakes a sleeping core; it resumes after the target's wake-up
// latency counted from cycle now.
func (c *Core) Wake(now uint64) {
	if c.sleep == Awake {
		return
	}
	kind := c.sleep
	c.sleep = Awake
	c.stallUntil = now + uint64(c.Target.Time.WakeUp)
	// Wake-up latency attributes to the synchronization primitive the core
	// was sleeping on: barrier wake-up is Sync, event wake-up is Sleep.
	if kind == SleepBarrier {
		c.stallClass = obs.Sync
	} else {
		c.stallClass = obs.Sleep
	}
	if c.SleepHook != nil {
		c.SleepHook(now, kind, false)
	}
}

// SleepNow forces the core to sleep (used for cores outside the team).
func (c *Core) SleepNow(kind SleepKind) { c.sleep = kind }

func (c *Core) fail(err error) {
	c.Halted = true
	if c.Err == nil {
		c.Err = fmt.Errorf("core %d at pc=%#x: %w", c.ID, c.PC, err)
	}
}

// The fail* helpers build their error values out of line: fmt.Errorf
// argument slices constructed inline would live on the frames of Step and
// execute, growing the prologue every instruction pays for.
func (c *Core) failFetch() uint64 {
	if o := c.Obs; o != nil {
		o.Tick(obs.Issue) // the faulting cycle still counts once
	}
	c.fail(fmt.Errorf("fetch outside text segment"))
	return NextEventNever
}

func (c *Core) failIllegal(in isa.Inst) uint64 {
	if o := c.Obs; o != nil {
		o.Tick(obs.Issue)
	}
	c.fail(fmt.Errorf("illegal instruction for target %s: %v", c.Target.Name, in))
	return NextEventNever
}

func (c *Core) failUnaligned(size, addr uint32) uint64 {
	if o := c.Obs; o != nil {
		o.Tick(obs.Issue)
	}
	c.fail(fmt.Errorf("unaligned %d-byte access at %#x without unaligned support", size, addr))
	return NextEventNever
}

func (c *Core) failOpcode(in isa.Inst) uint64 {
	c.fail(fmt.Errorf("unimplemented opcode %v", in.Op))
	return NextEventNever
}

// reg and setReg mask the register index: Predecode rejects any
// instruction with a register number >= NumRegs as illegal, so the mask
// never wraps on the execute path — it only lets the compiler drop the
// bounds check on every register-file access.
func (c *Core) reg(r isa.Reg) uint32 { return c.Regs[r&(isa.NumRegs-1)] }

func (c *Core) setReg(r isa.Reg, v uint32) {
	if r != isa.R0 {
		c.Regs[r&(isa.NumRegs-1)] = v
	}
}

// Step advances the core by one cycle. It returns the earliest future
// cycle at which the core can make progress on its own: stallUntil for a
// stalled core, now+1 for a core that executed or must retry an access,
// and NextEventNever for a halted or sleeping core (which needs an
// external wake). The cluster aggregates these hints to fast-forward
// windows in which no core can act; the hint may be stale only if another
// core wakes this one later in the same cycle, and that waker's own hint
// is then now+1, which keeps the aggregate conservative.
func (c *Core) Step(now uint64) uint64 {
	if c.Halted {
		if o := c.Obs; o != nil {
			// Keeps the per-core class sum equal to the cluster cycle count
			// while other cores keep running (Stats stay untouched).
			o.Tick(obs.Halted)
		}
		return NextEventNever
	}
	if c.sleep != Awake {
		c.Stats.Sleep++
		if o := c.Obs; o != nil {
			if c.sleep == SleepBarrier {
				o.Tick(obs.Sync)
			} else {
				o.Tick(obs.Sleep)
			}
		}
		return NextEventNever
	}
	if c.stallUntil > now {
		if c.planOn {
			if c.planICStall > 0 {
				// Mid-refill of a fetch-point miss: inserted ICache stall
				// cycles, the plan cursor frozen until the retry (which
				// planFetchAt points at).
				c.planICStall--
				c.Stats.Stall++
				if o := c.Obs; o != nil {
					o.Tick(obs.ICache)
				}
				return c.planFetchAt
			}
			if now == c.planFetchAt {
				// Chained execution crosses into a new fetch line this
				// cycle: consult the shared I$ live, exactly as the
				// stepped fetch path would have at this cycle (a retry
				// after a miss re-fetches here too and scores the hit,
				// matching the stepped resume).
				i := c.planFetchI
				fpc := c.planFetchPC[i]
				if !c.IC.Probe(fpc, now) {
					if done := c.IC.Fetch(fpc, now); done > now {
						c.planICStall = done - now - 1
						c.planFetchAt = done
						c.stallUntil += done - now
						c.Stats.Stall++
						if o := c.Obs; o != nil {
							o.Tick(obs.ICache)
							if o.TL != nil {
								o.TL.Span(o.Tid, "I$ refill", "stall", now, done, nil)
							}
						}
						return done
					}
				}
				c.fetchedLine = fpc &^ c.FetchLineMask
				c.planFetchI = i + 1
				if i+1 < c.planFetchN {
					c.planFetchAt = now + uint64(c.planFetch[i+1]-c.planFetch[i])
				} else {
					c.planFetchAt = NextEventNever
				}
			}
			// Charge this cycle from the fused run's deferred plan: the
			// bit at the cursor offset classifies it as an instruction
			// issue or a stall of a specific class, exactly as stepped
			// execution would have charged it at this cycle.
			off := c.planCursor - c.planStart
			w, bit := off>>6, uint64(1)<<(off&63)
			c.planCursor++
			if c.planIssue[w]&bit != 0 {
				c.Stats.Active++
				c.Stats.Retired++
				if o := c.Obs; o != nil {
					o.Tick(obs.Issue)
				}
			} else {
				c.Stats.Stall++
				if o := c.Obs; o != nil {
					switch {
					case c.planLU[w]&bit != 0:
						o.Tick(obs.LoadUse)
					case c.planEM[w]&bit != 0:
						o.Tick(obs.ExtMem)
					default:
						o.Tick(obs.Issue)
					}
				}
			}
			return c.planHint()
		}
		if c.stallAccounted {
			// A solo fused run pre-charged this whole window (Stats and
			// attribution batched at issue time); just repeat the hint.
			return c.stallUntil
		}
		c.Stats.Stall++
		if o := c.Obs; o != nil {
			o.Tick(c.stallClass)
		}
		return c.stallUntil
	}
	// The core is resuming: any fused-run window is over.
	c.stallAccounted = false
	c.planOn = false
	var in isa.Inst
	var m InstMeta
	var addr, wdata uint32
	var idx uint32
	if c.hasPending {
		// Retry the parked access: re-enter the shared access path below.
		// Hazards and alignment were already checked when it first issued.
		c.hasPending = false
		in, m, addr, wdata = c.pending.in, c.pending.m, c.pending.addr, c.pending.wdata
		goto access
	}

	// Fetch: the line prefetch buffer short-circuits the shared cache
	// while execution stays within the current line. Probe is the
	// inlined ready-hit fast path; everything else (miss, in-flight
	// refill, parity) goes through the full Fetch.
	if ic := c.IC; ic != nil {
		line := c.PC &^ c.FetchLineMask
		if c.FetchLineMask == 0 || line != c.fetchedLine {
			if !ic.Probe(c.PC, now) {
				if done := ic.Fetch(c.PC, now); done > now {
					c.stallUntil = done
					c.stallClass = obs.ICache
					c.Stats.Stall++
					if o := c.Obs; o != nil {
						o.Tick(obs.ICache)
						if o.TL != nil {
							o.TL.Span(o.Tid, "I$ refill", "stall", now, done, nil)
						}
					}
					return done
				}
			}
			c.fetchedLine = line
		}
	}
	// A PC below base wraps the uint32 subtraction to at least 2^32-base,
	// and idx lands far above len(code) for any text segment that fits the
	// address space — the single bound check catches both directions.
	{
		idx = (c.PC - c.base) / 4
		if idx >= uint32(len(c.code)) {
			return c.failFetch()
		}
		d := &c.code[idx]
		in = d.In
		m = d.Meta
	}

	if m.Flags&MetaIllegal != 0 {
		return c.failIllegal(in)
	}

	// Load-use hazard: one bubble if the previous instruction was a load
	// and this one consumes its result.
	if c.lastLoadArmed {
		c.lastLoadArmed = false
		if c.loadUse > 0 && m.ReadMask&(1<<c.lastLoadReg) != 0 {
			c.stallUntil = now + c.loadUse
			c.stallClass = obs.LoadUse
			c.Stats.Stall++
			if o := c.Obs; o != nil {
				o.Tick(obs.LoadUse)
			}
			return c.stallUntil
		}
	}

	// Fused basic-block dispatch (block.go): with this instruction's gate,
	// fetch and hazard checks already done, the rest of its straight-line
	// run can execute in one call. Solo runs (every other actor halted or
	// asleep, DMA idle) fuse without bound; multi-core runs fuse the
	// Multi-table run — an optional memory access at offset 0, issued
	// through real bank arbitration right here at cycle now, plus a
	// pure-ALU tail. ok=false means the first instruction needs the
	// stepped path below and nothing was executed.
	if bt := c.blocks; bt != nil {
		if n := uint32(bt.Multi[idx]); c.Solo {
			if n != 0 {
				if hint, ok := c.runFusedSolo(now); ok {
					return hint
				}
			}
		} else if n > 1 {
			if hint, ok := c.runFusedMulti(now, n); ok {
				return hint
			}
		}
	}

	if m.Flags&MetaMem != 0 {
		// Issue the load/store directly (one call layer less than a helper:
		// ~36% of retired instructions take this path). On a grant the
		// access completes this cycle; on a structural conflict it parks in
		// pending and retries. The access shape is predecoded in m.
		size := uint32(m.Size)
		if m.Flags&MetaPostIncr != 0 {
			addr = c.reg(in.Ra)
		} else {
			addr = c.reg(in.Ra) + uint32(in.Imm)
		}
		if m.Flags&MetaChkAlign != 0 && addr&(size-1) != 0 {
			return c.failUnaligned(size, addr)
		}
		if m.Flags&MetaStore != 0 {
			wdata = c.reg(in.Rb)
		}
		goto access
	}
	// Execute the non-memory instruction in line: the switch below is the
	// single-caller body of the interpreter proper, merged into Step so
	// the per-instruction path pays no call/prologue overhead. extra is
	// the op's base cycle cost minus the issue cycle (predecoded).
	{
		extra := int(m.Cyc) - 1
		c.Stats.Active++
		c.Stats.Retired++
		if o := c.Obs; o != nil {
			o.Tick(obs.Issue)
		}
		if c.Trace != nil {
			c.Trace(now, c.PC, in)
		}

		a := c.reg(in.Ra)
		b := c.reg(in.Rb)
		next := c.PC + 4

		switch in.Op {
		case isa.NOP:

		case isa.J:
			next = uint32(int64(c.PC) + 4 + int64(in.Imm)*4)
			extra += c.timeJump
		case isa.JAL:
			c.setReg(isa.LR, c.PC+4)
			next = uint32(int64(c.PC) + 4 + int64(in.Imm)*4)
			extra += c.timeJump
		case isa.JR:
			next = a
			extra += c.timeJump
		case isa.JALR:
			c.setReg(in.Rd, c.PC+4)
			next = a
			extra += c.timeJump
		case isa.BF, isa.BNF:
			taken := c.Flag == (in.Op == isa.BF)
			if taken {
				next = uint32(int64(c.PC) + 4 + int64(in.Imm)*4)
				extra += c.timeBranch
			}
		case isa.TRAP:
			c.Halted = true
			c.TrapCode = in.Imm
			return NextEventNever
		case isa.WFE:
			c.advancePC(next)
			if c.env.WFE(c.ID) {
				c.sleep = SleepEvent
				if c.SleepHook != nil {
					c.SleepHook(now, SleepEvent, true)
				}
				return NextEventNever
			}
			return now + 1

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

		// The per-lane SIMD ops are direct switch arms with hand-unrolled
		// lanes (the compiler neither devirtualizes a lane-combinator closure
		// nor unrolls the lane loop, and constant shift counts are free).
		// Per-lane wraparound comes from truncating each lane's sum back to
		// its width, so the cross-lane carries of the word-wide adds cannot
		// leak: out = trunc(a.lane + b.lane) per lane.
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
				start: c.PC + 4,
				end:   c.PC + 4 + uint32(in.Imm)*4,
				count: a,
			}
			if a == 0 {
				// Zero-trip loop: skip the body entirely.
				next = c.PC + 4 + uint32(in.Imm)*4
				c.lpEnd[i] = lpInactive
			} else {
				c.lpEnd[i] = c.lp[i].end
			}

		case isa.MFSPR:
			c.setReg(in.Rd, c.env.SPR(c.ID, in.Imm))

		default:
			return c.failOpcode(in)
		}

		c.advancePC(next)
		if extra > 0 {
			// The instruction issued this cycle; extra cycles stall the next
			// one. The trailing cycles of a multi-cycle op attribute to Issue
			// (they are the op's own latency, not a structural stall).
			c.stallUntil = now + uint64(extra) + 1
			c.stallClass = obs.Issue
			return c.stallUntil
		}
		return now + 1
	}

access:
	// Perform the data access. TCDM accesses take the direct fast path —
	// bank arbitration plus the data access, exactly what the cluster's
	// Access would do for the TCDM range — and only the uncommon ranges
	// (peripherals, L2) pay the Env dispatch. The op travels in registers
	// and is only materialized into c.pending when it parks for a retry;
	// both the issue path above and the retry gate land here, so the
	// access logic exists once with no call layer on the per-access path.
	{
		size := uint32(m.Size)
		store := m.Flags&MetaStore != 0
		var rdata uint32
		var extra int
		if t := c.TCDM; t != nil && t.Contains(addr, size) {
			if !t.Request(addr) {
				c.park(in, m, addr, wdata, obs.Conflict)
				return now + 1
			}
			if store {
				t.Write(addr, size, wdata)
			} else {
				rdata = t.Read(addr, size)
			}
		} else {
			var st Status
			var err error
			rdata, extra, st, err = c.env.Access(c.ID, store, addr, size, wdata)
			if err != nil {
				if o := c.Obs; o != nil {
					o.Tick(obs.Issue)
				}
				c.fail(err)
				return NextEventNever
			}
			switch st {
			case AccessRetry:
				c.park(in, m, addr, wdata, obs.Conflict)
				return now + 1
			case AccessRetrySync:
				c.park(in, m, addr, wdata, obs.Sync)
				return now + 1
			case AccessSleepBarrier:
				c.sleep = SleepBarrier
				c.Stats.Active++
				c.Stats.Retired++
				if o := c.Obs; o != nil {
					o.Tick(obs.Issue) // the arrival store issued this cycle
				}
				c.advancePC(c.PC + 4)
				if c.SleepHook != nil {
					c.SleepHook(now, SleepBarrier, true)
				}
				return NextEventNever
			}
		}

		c.Stats.Active++
		c.Stats.Retired++
		if o := c.Obs; o != nil {
			// DMAWait if this access was a status poll that saw a busy DMA
			// engine (the cluster marked it during dispatch), Issue otherwise.
			o.TickIssueMem()
		}
		if c.Trace != nil {
			c.Trace(now, c.PC, in)
		}

		if !store {
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
		if addr&(size-1) != 0 {
			extra++ // unaligned access: second bank cycle
		}
		c.advancePC(c.PC + 4)
		if extra > 0 {
			// Extra memory latency (L2/peripheral wait states, unaligned
			// second bank cycle) attributes to ExtMem.
			c.stallUntil = now + uint64(extra) + 1
			c.stallClass = obs.ExtMem
			return c.stallUntil
		}
		return now + 1
	}
}

// CreditIdle accounts a fast-forwarded idle window: the cluster verified
// that for the next `cycles` cycles this core would only have burned one
// Sleep (asleep) or Stall (stalled) count per cycle, and credits them in
// bulk. Halted cores accrue no Stats, exactly as in cycle-by-cycle
// stepping (but still attribute Halted cycles when observability is on,
// matching Step's halted branch so the attribution sum stays exact).
// The window never crosses a state change — the cluster's fast-forward
// bound is the earliest event of any core — so the bulk credit lands in
// the same class cycle-by-cycle stepping would have charged.
func (c *Core) CreditIdle(cycles uint64) {
	switch {
	case c.Halted:
		if o := c.Obs; o != nil {
			o.Credit(obs.Halted, cycles)
		}
	case c.sleep != Awake:
		c.Stats.Sleep += cycles
		if o := c.Obs; o != nil {
			if c.sleep == SleepBarrier {
				o.Credit(obs.Sync, cycles)
			} else {
				o.Credit(obs.Sleep, cycles)
			}
		}
	default:
		if c.planOn {
			if c.planICStall > 0 {
				// Refill cycles of a fetch-point miss drain first, the
				// cursor frozen: the fast-forward bound never crosses the
				// retry cycle (the step hint caps there), so the window
				// is refill stall up to it.
				k := c.planICStall
				if k > cycles {
					k = cycles
				}
				c.planICStall -= k
				c.Stats.Stall += k
				if o := c.Obs; o != nil {
					o.Credit(obs.ICache, k)
				}
				cycles -= k
				if cycles == 0 {
					return
				}
			}
			// Bulk-consume the fused run's deferred plan: the skipped
			// window is the next `cycles` offsets at the cursor, so the
			// class split is a ranged popcount per bitmask. The
			// fast-forward bound (the earliest event of any core) never
			// crosses stallUntil, so the range stays within the plan.
			off := c.planCursor - c.planStart
			c.planCursor += cycles
			iss := planRange(&c.planIssue, off, cycles)
			c.Stats.Active += iss
			c.Stats.Retired += iss
			c.Stats.Stall += cycles - iss
			if o := c.Obs; o != nil {
				lu := planRange(&c.planLU, off, cycles)
				em := planRange(&c.planEM, off, cycles)
				// Issue-class charge = issues + stalls in no other class.
				o.Credit(obs.Issue, cycles-lu-em)
				if lu > 0 {
					o.Credit(obs.LoadUse, lu)
				}
				if em > 0 {
					o.Credit(obs.ExtMem, em)
				}
			}
			return
		}
		if c.stallAccounted {
			// The window was pre-charged by a solo fused run; the
			// fast-forward bound never crosses stallUntil, so the whole
			// window is already accounted.
			return
		}
		c.Stats.Stall += cycles
		if o := c.Obs; o != nil {
			o.Credit(c.stallClass, cycles)
		}
	}
}

// planHint returns the step hint of a core mid-plan: the end of the plan
// window, capped at the next fetch point (planFetchAt — the cycle at
// which the core touches the shared I$ and must be stepped live, never
// fast-forwarded past; mid-refill it holds the retry cycle instead, and
// NextEventNever when no points remain).
func (c *Core) planHint() uint64 {
	if c.planFetchAt < c.stallUntil {
		return c.planFetchAt
	}
	return c.stallUntil
}

// planRange counts the set bits of a charge-plan bitmask over the cycle
// offsets [off, off+n). The loop runs at most planWords iterations and
// usually one: idle windows rarely straddle a 64-offset word boundary.
func planRange(p *[planWords]uint64, off, n uint64) uint64 {
	var count uint64
	for w := off >> 6; n > 0 && w < planWords; w++ {
		lo := off & 63
		take := 64 - lo
		if take > n {
			take = n
		}
		mask := ^uint64(0)
		if take < 64 {
			mask = (uint64(1)<<take - 1) << lo
		}
		count += uint64(bits.OnesCount64(p[w] & mask))
		off += take
		n -= take
	}
	return count
}

// NextUp returns the earliest future cycle, at or after `from`, at which
// this core can act on its own: NextEventNever for a halted or sleeping
// core (it needs an external wake), the end of the current stall window
// for a stalled one, `from` otherwise. Unlike the Step return hint it
// reads the core's *current* state, so a core woken later in the same
// cycle reports its true wake-up-stall end rather than a stale never —
// the cluster's solo-window scan relies on that to bound how long a lone
// runnable core may fuse ahead. A core mid-plan reports its next fetch
// point rather than the window end: it touches the shared I$ at that
// cycle, so a sibling's solo window must never cover it.
func (c *Core) NextUp(from uint64) uint64 {
	if c.Halted || c.sleep != Awake {
		return NextEventNever
	}
	if c.stallUntil > from {
		if c.planOn {
			return c.planHint()
		}
		return c.stallUntil
	}
	return from
}

// lpInactive is the lpEnd sentinel of an inactive hardware loop: PCs are
// word-aligned, so no instruction address can ever compare equal to it.
const lpInactive uint32 = 1

// advancePC computes the next PC, applying hardware-loop wraparound. The
// lpEnd sentinels make the common case (no active loop ends here) two
// always-false compares that inline into the callers; the once-per-
// iteration wraparound bookkeeping lives in lpWrap.
func (c *Core) advancePC(next uint32) {
	if next == c.lpEnd[0] || next == c.lpEnd[1] {
		next = c.lpWrap(next)
	}
	c.PC = next
}

// lpWrap handles a PC that reached an active hardware-loop end: another
// trip branches back to the loop start, the final trip falls through and
// deactivates the loop. Loop 0 takes priority when both end here,
// matching the reference scan order.
func (c *Core) lpWrap(next uint32) uint32 {
	i := 1
	if next == c.lpEnd[0] {
		i = 0
	}
	l := &c.lp[i]
	if l.count > 1 {
		l.count--
		return l.start
	}
	l.count = 0
	c.lpEnd[i] = lpInactive
	return next
}

func divS(a, b uint32) uint32 {
	if b == 0 {
		if int32(a) >= 0 {
			return 0x7fffffff
		}
		return 0x80000000
	}
	if int32(a) == -0x80000000 && int32(b) == -1 {
		return 0x80000000
	}
	return uint32(int32(a) / int32(b))
}

func divU(a, b uint32) uint32 {
	if b == 0 {
		return 0xffffffff
	}
	return a / b
}

// park stages a denied access for retry next cycle. cl is the attribution
// class of the denied cycle (bank conflict or mutex spin).
func (c *Core) park(in isa.Inst, m InstMeta, addr, wdata uint32, cl obs.Class) {
	c.pending = memOp{in: in, m: m, addr: addr, wdata: wdata}
	c.hasPending = true
	c.Stats.Stall++
	if o := c.Obs; o != nil {
		o.Tick(cl)
	}
}
