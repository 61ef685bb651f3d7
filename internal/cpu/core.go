// Package cpu implements the in-order core model that executes the ISA of
// internal/isa. The same interpreter, parameterized by an isa.Target,
// models the OR10N cores of the PULP cluster (with MAC, SIMD, hardware
// loops and post-increment addressing), the plain-RISC configuration used
// to count Table I's RISC operations, and the Cortex-M3/M4 hosts.
//
// The core runs in two modes. Step advances it by exactly one cycle, its
// memory accesses going through an environment interface that performs
// TCDM bank arbitration, I/O dispatch and sleep control; the cluster calls
// it for every cycle it does not run fused. RunSolo and RunWindow run it
// over many cycles on the fused executor, when the cluster's scheduler
// finds it the only awake core or a member of an optimistic window. The
// instruction semantics exist once, in the switch of runFused (block.go):
// Step runs each non-memory op there for one cycle, and a fused run for
// many. Fetch, hazards, arbitration and the memory path stay per mode, so
// the tier differentials check timing; the oracle in cpu_test.go, not the
// differentials, checks what each op computes.
package cpu

import (
	"fmt"

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

// execState is the part of a core that fused execution mutates and an
// optimistic window rolls back (window.go): the architectural registers,
// the pipeline's timing state and the fetch buffer. Sleep, halt and error
// state are absent on purpose — no window run changes them, because every
// instruction that can ends the run first.
type execState struct {
	PC            uint32
	lastLoadArmed bool
	lastLoadReg   isa.Reg
	Flag          bool
	hasPending    bool

	// stallClass is the attribution class of the current stallUntil window
	// (obs.Class). Written whenever stallUntil is set; read by the stall
	// branch of Step and by CreditIdle. Maintained unconditionally (a byte
	// store) so bulk idle credits classify correctly whenever Obs is on.
	stallClass obs.Class

	fetchedLine uint32
	stallUntil  uint64
	// acctUntil marks the cycles before it as already charged by a fused
	// run (block.go), which batch-charges everything it simulated up to
	// its issue limit: Step's stall gate and CreditIdle charge only the
	// cycles of a stall window at or past it. A fused run's trailing stall
	// that crosses the limit is therefore charged cycle by cycle like any
	// stepped stall, so Stats always cover exactly the simulated cycles —
	// however the run loop ends.
	acctUntil uint64

	Regs [isa.NumRegs]uint32
	Acc  int64 // 64-bit MAC accumulator (M-profile)

	lp [2]hwLoop
	// lpEnd[i] mirrors lp[i].end while loop i is active and holds the
	// unreachable lpInactive sentinel otherwise, so the per-instruction
	// wraparound check in advancePC is two compares, no state test.
	lpEnd [2]uint32
}

// Core is one simulated core. Field order is deliberate: the base and
// gate scalars sit next to the embedded execution state the per-cycle
// Step and fetch path touch, so they share cache lines; the large, cold
// Target descriptor and error/trace plumbing go last.
type Core struct {
	base   uint32
	sleep  SleepKind
	Halted bool

	execState

	// FetchLineMask models the core's line prefetch buffer: while the PC
	// stays within the last fetched line (pc &^ mask unchanged), the cache
	// is not consulted again. Step's one-cycle runFused call relies on it:
	// the line Step has just fetched is buffered, so the call never probes.
	FetchLineMask uint32

	code []Decoded // predecoded text, see Predecode

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

	Stats Stats

	// saved and held are this core's side of an optimistic window
	// (window.go): the state to roll back to, and the charges of the
	// window run, applied only when the window commits.
	saved execState
	held  charge
	// scratch receives the charge of Step's one-cycle runFused calls,
	// which Step discards (it books its own); a core-owned sink spares
	// zeroing one per step.
	scratch charge

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
	c.acctUntil = 0
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

// loadExt is the one definition of load extension, shared by the stepped
// and fused memory paths: the loaded bytes of rdata zero- or sign-extended
// by op. It is small enough to inline into both.
func loadExt(op isa.Op, rdata uint32) uint32 {
	switch op {
	case isa.LBZ, isa.LBZP:
		return rdata & 0xff
	case isa.LBS, isa.LBSP:
		return uint32(int32(int8(rdata)))
	case isa.LHZ, isa.LHZP:
		return rdata & 0xffff
	case isa.LHS, isa.LHSP:
		return uint32(int32(int16(rdata)))
	}
	return rdata
}

// Step advances the core by one cycle and never fuses: the one fused call
// it makes executes a single non-memory op. It returns the earliest future
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
		if now < c.acctUntil {
			// A fused run already charged this cycle (Stats and attribution
			// batched at issue time); just repeat the hint.
			return c.stallUntil
		}
		c.Stats.Stall++
		if o := c.Obs; o != nil {
			o.Tick(c.stallClass)
		}
		return c.stallUntil
	}
	var in isa.Inst
	var m InstMeta
	var addr, wdata uint32
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
		if line := c.PC &^ c.FetchLineMask; line != c.fetchedLine {
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
		idx := (c.PC - c.base) / 4
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
	// Execute the non-memory instruction. TRAP, WFE and MFSPR reach state
	// outside the core and execute here; every other op runs on the fused
	// executor for exactly this cycle (block.go), whose switch is the one
	// copy of the instruction semantics. The fetch line is buffered and
	// the load-use hazard consumed above, so the call executes the op and
	// nothing else; its charge is discarded (Step books its own).
	c.Stats.Active++
	c.Stats.Retired++
	if o := c.Obs; o != nil {
		o.Tick(obs.Issue)
	}
	if c.Trace != nil {
		c.Trace(now, c.PC, in)
	}
	switch in.Op {
	case isa.TRAP:
		c.Halted = true
		c.TrapCode = in.Imm
		return NextEventNever
	case isa.WFE:
		c.advancePC(c.PC + 4)
		if c.env.WFE(c.ID) {
			c.sleep = SleepEvent
			if c.SleepHook != nil {
				c.SleepHook(now, SleepEvent, true)
			}
			return NextEventNever
		}
		return now + 1
	case isa.MFSPR:
		c.setReg(in.Rd, c.env.SPR(c.ID, in.Imm))
		c.advancePC(c.PC + 4)
		return now + 1
	}
	if t := c.runFused(now, now+1, nil, &c.scratch); t > now+1 {
		// The trailing cycles of a multi-cycle op or a taken branch stall
		// the next issue; runFused set stallClass (Issue).
		c.stallUntil = t
		return t
	} else if t == now {
		return c.failOpcode(in)
	}
	return now + 1

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
			c.setReg(in.Rd, loadExt(in.Op, rdata))
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

// CreditIdle accounts a fast-forwarded idle window [now, now+cycles): the
// cluster verified that in it this core would only have burned one Sleep
// (asleep) or Stall (stalled) count per cycle, and credits them in bulk.
// Halted cores accrue no Stats, exactly as in cycle-by-cycle stepping (but
// still attribute Halted cycles when observability is on, matching Step's
// halted branch so the attribution sum stays exact). The window never
// crosses a state change — the cluster's fast-forward bound is the
// earliest event of any core — so the bulk credit lands in the same class
// cycle-by-cycle stepping would have charged, and a stall's cycles before
// acctUntil, which a fused run already charged, are skipped.
func (c *Core) CreditIdle(now, cycles uint64) {
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
		if c.acctUntil > now {
			paid := c.acctUntil - now
			if paid >= cycles {
				return
			}
			cycles -= paid
		}
		c.Stats.Stall += cycles
		if o := c.Obs; o != nil {
			o.Credit(c.stallClass, cycles)
		}
	}
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
