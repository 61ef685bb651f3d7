// Package cluster wires the simulated PULP cluster together: 1–4 cores
// (internal/cpu), the multi-banked TCDM and shared I-cache (internal/mem),
// the lightweight DMA (internal/dma) and the hardware synchronizer
// (internal/hwsync). The run loop steps them in lock-step one cycle at a
// time, except where its one scheduler (window.go) runs them fused: a
// lone awake core solo, two or more in optimistic windows, each
// bit-identical to stepping. It also stands in for the MCU when
// configured with a single M-profile core, a flat memory and a perfect
// fetch path.
//
// Per-component activity counters collected here are the chi ratios of the
// paper's power model (Section IV-A).
package cluster

import (
	"errors"
	"fmt"
	"math/bits"

	"hetsim/internal/asm"
	"hetsim/internal/cpu"
	"hetsim/internal/dma"
	"hetsim/internal/fault"
	"hetsim/internal/hw"
	"hetsim/internal/hwsync"
	"hetsim/internal/isa"
	"hetsim/internal/mem"
	"hetsim/internal/obs"
	"hetsim/internal/trace"
)

// Config selects the cluster's shape.
type Config struct {
	Cores     int
	Target    isa.Target
	TCDMSize  uint32
	TCDMBanks int
	L2Size    uint32

	// ICacheSize 0 selects a perfect (always-hit) fetch path, used for the
	// MCU model (zero-wait-state flash with prefetch).
	ICacheSize uint32
	ICacheLine uint32

	// L2Latency is the extra cycles of a core's direct load/store to L2
	// over the peripheral interconnect.
	L2Latency int

	// ReferenceRun selects the naive cycle-by-cycle run loop (full core
	// rescan after every Step, no idle fast-forward) instead of the
	// event-driven one. Both must produce bit-identical cycle counts,
	// EOC values and stats; the differential cycle-accuracy test steps
	// them against each other over the whole kernel suite.
	ReferenceRun bool

	// NoBlocks disables fused execution (DESIGN.md §12–13) while keeping
	// the event-driven run loop: the scheduler grants no solo run and no
	// window, so every instruction takes the stepped path. The block
	// differential tests use it as the middle rung between fused
	// execution and ReferenceRun; results are bit-identical across all
	// three.
	NoBlocks bool

	// Observe attaches per-core cycle attribution (internal/obs) to the
	// cluster built by RunJob. Attribution is purely observational: cycle
	// counts, stats and outputs are bit-identical either way (enforced by
	// the observability differential test).
	Observe bool
}

// PULPConfig returns the PULP3 cluster of the paper: 4 OR10N cores, 8-bank
// 64 kB TCDM, 4 kB shared I$, 64 kB L2.
func PULPConfig() Config {
	return Config{
		Cores:      4,
		Target:     isa.PULPFull,
		TCDMSize:   hw.DefaultTCDMSize,
		TCDMBanks:  hw.DefaultTCDMBanks,
		L2Size:     hw.DefaultL2Size,
		ICacheSize: 4 * 1024,
		ICacheLine: 32,
		L2Latency:  8,
	}
}

// MCUConfig returns a single-core host model: one M-profile (or plain)
// core, flat single-bank memory, perfect fetch, no L2 penalty (the MCU's
// SRAM is single-cycle and code runs from zero-wait flash).
func MCUConfig(target isa.Target) Config {
	return Config{
		Cores:     1,
		Target:    target,
		TCDMSize:  hw.DefaultTCDMSize,
		TCDMBanks: 1,
		L2Size:    hw.DefaultL2Size,
		L2Latency: 0,
	}
}

// Cluster is the simulated compute cluster.
type Cluster struct {
	Cfg   Config
	Cores []*cpu.Core
	TCDM  *mem.TCDM
	L2    *mem.SRAM
	IC    *mem.ICache
	DMA   *dma.Engine
	Evt   *hwsync.EventUnit

	now      uint64
	rrOffset int
	// order[r] is Cores rotated left by r: the per-cycle service order for
	// rrOffset r, precomputed so the hot loop is a plain slice range with
	// no index arithmetic.
	order [][]*cpu.Core

	// Per-cycle aggregates maintained by Step for the event-driven run
	// loop: stepStatus folds every termination condition into one byte
	// (0 = keep running) so the run loop's per-cycle check is a single
	// load and branch, and nextEvent is the earliest future cycle at
	// which any core or the DMA can make progress (cpu.NextEventNever
	// when all need an external event). The core-state counts they are
	// derived from can only over-count sleepers for a core woken later
	// in the same cycle — and then the waker itself was counted active,
	// so no termination condition or fast-forward can mis-fire.
	stepStatus uint8
	nextEvent  uint64

	// fused records that fused execution is on (LoadCompiled): the run
	// loop's scheduler (window.go) grants solo runs and optimistic
	// windows. It is only sound with the event-driven loop and no fault
	// injector or tracer.
	fused bool
	win   winState

	// awake is the number of awake cores at the end of the last Step, and
	// multiCycles counts the cycles with at least two awake cores — the
	// cycles optimistic windows compete for (flushed to the window
	// counters at the end of every Run).
	awake       int
	multiCycles uint64

	eoc      bool
	eocValue uint32

	// SuppressEOC models a stuck end-of-computation wire (fault
	// injection, see internal/fault): the program's EOC store is accepted
	// but the latch never raises, so the host-visible signal is lost and
	// the run ends in deadlock or halt instead. The offload runtime sets
	// it per attempt.
	SuppressEOC bool

	tracer *trace.Tracer

	// faultsOn records that a fault injector is attached: fused block
	// execution is disabled so every SEU/parity injection point sits on
	// the stepped path at its exact cycle.
	faultsOn bool

	// obs is the attached observability bundle (nil = detached); sleepMark
	// tracks each core's open sleep interval and current run span for the
	// sleep/wake trace events and timeline spans.
	obs       *obs.Observer
	sleepMark []sleepMark

	err error
}

// sleepMark is the per-core sleep/run bookkeeping behind the SleepHook.
type sleepMark struct {
	start    uint64 // cycle the open sleep interval began
	lastWake uint64 // cycle the current run span began
	sleep0   uint64 // core's Stats.Sleep at the sleep transition
	kind     cpu.SleepKind
	open     bool
}

// New builds a cluster from the config.
func New(cfg Config) *Cluster {
	if cfg.Cores <= 0 || cfg.Cores > 32 {
		panic(fmt.Sprintf("cluster: invalid core count %d", cfg.Cores))
	}
	cl := &Cluster{
		Cfg:  cfg,
		TCDM: mem.NewTCDM(cfg.TCDMSize, cfg.TCDMBanks),
		L2:   mem.NewSRAM(hw.L2Base, cfg.L2Size),
		Evt:  hwsync.New(cfg.Cores),
	}
	if cfg.ICacheSize > 0 {
		line := cfg.ICacheLine
		if line == 0 {
			line = 32
		}
		cl.IC = mem.NewICache(cfg.ICacheSize, line)
	}
	cl.DMA = dma.New((*dmaMem)(cl))
	// The DMA engine and event unit stamp timeline spans with the cluster
	// cycle; hand them the clock up front (reads are gated on a non-nil
	// span recorder, so this costs nothing until AttachObs).
	cl.DMA.Now = &cl.now
	cl.Evt.Now = &cl.now
	cl.sleepMark = make([]sleepMark, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := cpu.New(i, cfg.Target, cl)
		if cl.IC != nil {
			c.IC = cl.IC
			c.FetchLineMask = cl.IC.LineSize - 1
		}
		// Single-cycle L1 accesses bypass the Env dispatch; the core runs
		// the same arbitration + data access the Access method would.
		c.TCDM = cl.TCDM
		cl.Cores = append(cl.Cores, c)
	}
	// The scheduler's team slice is preallocated: a first grant that
	// allocated would show in the allocation gates.
	cl.win.team = make([]*cpu.Core, 0, cfg.Cores)
	cl.order = make([][]*cpu.Core, cfg.Cores)
	for r := 0; r < cfg.Cores; r++ {
		rot := make([]*cpu.Core, 0, cfg.Cores)
		rot = append(rot, cl.Cores[r:]...)
		cl.order[r] = append(rot, cl.Cores[:r]...)
	}
	return cl
}

// AttachFaults wires a seeded fault injector into the memory system: SEU
// bit-flips on TCDM and L2 word writes, I-cache parity errors on fetch
// hits, and in-flight DMA beat corruption. Attach before LoadProgram so
// the loader's own writes are as vulnerable as runtime stores; nil
// detaches. With no injector every check on the hot paths is a single
// nil compare, so clean runs are untouched.
func (cl *Cluster) AttachFaults(in *fault.Injector) {
	cl.TCDM.AttachFaults(in, fault.TCDMFlip)
	cl.L2.AttachFaults(in, fault.L2Flip)
	if cl.IC != nil {
		cl.IC.Inject = in
	}
	cl.DMA.Inject = in
	if in != nil {
		// Fault injection needs the stepped path: every TCDM/L2 word
		// write, fetch and DMA beat is an injection point that must land
		// at its exact cycle, and a fused run batches those.
		cl.faultsOn = true
		cl.fused = false
	}
}

// Now returns the current cycle.
func (cl *Cluster) Now() uint64 { return cl.now }

// EOC reports whether the program signalled end-of-computation, and the
// value it wrote (by convention 1 = success).
func (cl *Cluster) EOC() (bool, uint32) { return cl.eoc, cl.eocValue }

// LoadProgram installs the program: pre-decoded text for the cores, the
// data image at its load address in L2. When direct is true the data image
// is additionally pre-placed at its runtime (TCDM) address, modelling a
// host whose loader places data directly (MCU baseline); otherwise the
// device crt0 is responsible for the L2->TCDM copy via DMA.
func (cl *Cluster) LoadProgram(p *asm.Program, direct bool) error {
	return cl.LoadCompiled(p, direct, nil)
}

// LoadCompiled is LoadProgram taking an optional pre-compiled image (the
// kernels-package memo shares one predecoded Compiled across cores,
// clusters and sweep jobs). comp == nil compiles here. Fused execution is
// only turned on when it is sound for this cluster: event-driven loop, no
// fault injector, no tracer.
func (cl *Cluster) LoadCompiled(p *asm.Program, direct bool, comp *cpu.Compiled) error {
	textBytes, err := isa.EncodeProgram(p.Text)
	if err != nil {
		return err
	}
	if err := cl.L2.WriteBytes(p.TextBase, textBytes); err != nil {
		return fmt.Errorf("cluster: text does not fit L2: %w", err)
	}
	if len(p.Data) > 0 {
		if err := cl.L2.WriteBytes(p.DataLMA, p.Data); err != nil {
			return fmt.Errorf("cluster: data image does not fit L2: %w", err)
		}
		if direct {
			if err := cl.TCDM.WriteBytes(p.DataVMA, p.Data); err != nil {
				return fmt.Errorf("cluster: data image does not fit TCDM: %w", err)
			}
		}
	}
	// Predecode once and share the immutable result across all cores: they
	// run the same target.
	if comp == nil {
		comp = cpu.Compile(p.Text, cl.Cfg.Target)
	}
	for _, c := range cl.Cores {
		c.SetPredecoded(comp.Code, p.TextBase)
	}
	cl.fused = !cl.Cfg.ReferenceRun && !cl.Cfg.NoBlocks && !cl.faultsOn && cl.tracer == nil
	return nil
}

// Start resets all cores to the entry point and releases them. It is also
// the re-trigger path of the resilient offload runtime (a second
// fetch-enable edge after a failed attempt), so it soft-resets the event
// unit and the DMA engine: a wedged attempt must not leave stale latches,
// a half-full barrier or an in-flight transfer behind.
func (cl *Cluster) Start(entry uint32) {
	cl.eoc = false
	cl.err = nil
	cl.Evt.Reset()
	cl.DMA.Reset()
	for i, c := range cl.Cores {
		c.Start(entry)
		// Stats survive Start (they accumulate across retry attempts), so
		// the sleep baseline must be re-snapshotted, not zeroed.
		cl.sleepMark[i] = sleepMark{lastWake: cl.now, start: cl.now, sleep0: c.Stats.Sleep}
	}
}

// Step advances the whole cluster by one cycle. Core service order rotates
// so bank arbitration is fair; the DMA has the lowest priority, stepping
// after all cores. While stepping, it aggregates each core's state and
// next-event hint so the run loop's termination checks are O(1) and idle
// windows can be fast-forwarded.
func (cl *Cluster) Step() {
	cl.TCDM.BeginCycle()
	n := len(cl.Cores)
	now := cl.now
	halted, sleeping := 0, 0
	anyErr := false
	next := uint64(cpu.NextEventNever)
	for _, c := range cl.order[cl.rrOffset] {
		h := c.Step(now)
		if h < next {
			next = h
		}
		// NextEventNever is returned exactly by halted or sleeping cores,
		// so the (rare) aggregate bookkeeping hides behind one compare on
		// a value already in hand.
		if h == cpu.NextEventNever {
			if c.Halted {
				halted++
				if c.Err != nil {
					anyErr = true
				}
			} else {
				sleeping++
			}
		}
	}
	dmaBusy := false
	if cl.DMA.Busy() {
		cl.DMA.Step()
		if cl.DMA.Err != nil && cl.err == nil {
			cl.err = cl.DMA.Err
		}
		dmaBusy = cl.DMA.Busy()
		if dmaBusy && now+1 < next {
			// An in-flight transfer moves a beat every cycle; no window
			// to skip.
			next = now + 1
		}
	}
	cl.awake = n - halted - sleeping
	if cl.awake >= 2 {
		cl.multiCycles++
	}
	// Fold the termination conditions into the status byte while the
	// counts are still in registers. Bits may combine; the run loop's
	// finish decodes them in the reference loop's priority order.
	var status uint8
	if halted > 0 && halted+sleeping == n {
		// All halted, or mixed halt/sleep (the master trapped while
		// slaves sleep).
		status |= stepTrapHalt
	}
	if sleeping == n && !dmaBusy {
		status |= stepDeadlock
	}
	if anyErr {
		status |= stepCoreErr
	}
	if cl.eoc {
		status |= stepEOC
	}
	if cl.err != nil {
		status |= stepClusterErr
	}
	cl.stepStatus, cl.nextEvent = status, next
	cl.rrOffset++
	if cl.rrOffset == n {
		cl.rrOffset = 0
	}
	cl.now = now + 1
}

// stepStatus bits, in no particular order (finish imposes priority).
const (
	stepClusterErr uint8 = 1 << iota // cl.err set (DMA or interconnect)
	stepEOC                          // end-of-computation latch raised
	stepCoreErr                      // some core halted with an error
	stepTrapHalt                     // halted>0 and every core halted or asleep
	stepDeadlock                     // every core asleep, DMA idle
)

// ErrDeadlock is returned when every core sleeps with no wake source left.
var ErrDeadlock = errors.New("cluster: deadlock - all cores asleep, DMA idle, no EOC")

// RunResult summarizes a Run.
type RunResult struct {
	Cycles   uint64
	EOC      bool
	EOCValue uint32
	// Halted is true when all cores halted (TRAP) instead of signalling EOC.
	Halted   bool
	TrapCode int32
}

// Run steps the cluster until the program signals EOC, every core halts, a
// core faults, or maxCycles elapse. It returns the cycles consumed by this
// call.
//
// The loop is event-driven: per-cycle termination checks use the O(1)
// state aggregates Step maintains (instead of rescanning every core), and
// windows in which no core can act — all asleep at a barrier, or all
// stalled on multi-cycle ops, wake-up latency or refills — are
// fast-forwarded in one jump with the per-core Sleep/Stall counters
// credited in bulk; whenever the DMA is idle, the scheduler (window.go)
// runs the awake cores fused. Cycle counts, stats and termination results
// are bit-identical to the naive loop (Config.ReferenceRun); the
// differential cycle-accuracy test enforces this over the whole suite.
func (cl *Cluster) Run(maxCycles uint64) (RunResult, error) {
	res, err := cl.runLoop(maxCycles)
	// Fused runs need no unwinding here: they charge only the cycles below
	// their issue limit, and a trailing stall past it is charged cycle by
	// cycle as it elapses, so it simply stops with the run loop.
	cl.flushWindowCounters(res.Cycles)
	// Close open sleep intervals and run spans on every exit path, so
	// trace-derived sleep cycles always reconcile with CollectStats even
	// when the run ends inside a fast-forwarded idle window.
	cl.flushObs()
	return res, err
}

// runLoop dispatches to the event-driven or reference loop; Run wraps it
// so observability flushing happens exactly once per run on either.
func (cl *Cluster) runLoop(maxCycles uint64) (RunResult, error) {
	if cl.Cfg.ReferenceRun {
		return cl.runReference(maxCycles)
	}
	start := cl.now
	// Fused runs must not issue instructions past this call's cycle
	// budget: cap them at the same bound the loop condition enforces.
	horizon := start + maxCycles
	if horizon < start {
		horizon = cpu.NextEventNever
	}
	n := len(cl.Cores)
	for cl.now-start < maxCycles {
		if cl.fused && !cl.DMA.Busy() {
			cl.grant(horizon)
			if cl.now == horizon {
				break
			}
		}
		cl.Step()
		if cl.stepStatus != 0 {
			return cl.finish(start)
		}
		if cl.nextEvent > cl.now {
			// No core can act before cl.nextEvent and the DMA is idle:
			// skip the window, crediting each core's idle counters as
			// cycle-by-cycle stepping would have.
			skip := cl.nextEvent - cl.now
			if limit := maxCycles - (cl.now - start); skip > limit {
				skip = limit
			}
			for _, c := range cl.Cores {
				c.CreditIdle(cl.now, skip)
			}
			if cl.awake >= 2 {
				cl.multiCycles += skip
			}
			cl.rrOffset = int((uint64(cl.rrOffset) + skip) % uint64(n))
			cl.now += skip
		}
	}
	return RunResult{Cycles: cl.now - start}, fmt.Errorf("cluster: exceeded %d cycles", maxCycles)
}

// finish translates a non-zero stepStatus into the run's result, decoding
// combined bits in the priority order of the reference loop: cluster error,
// EOC, core error, halt/trap, deadlock. It runs once per Run termination.
func (cl *Cluster) finish(start uint64) (RunResult, error) {
	cycles := cl.now - start
	st := cl.stepStatus
	switch {
	case st&stepClusterErr != 0:
		return RunResult{Cycles: cycles}, cl.err
	case st&stepEOC != 0:
		return RunResult{Cycles: cycles, EOC: true, EOCValue: cl.eocValue}, nil
	case st&stepCoreErr != 0:
		_, firstErr := cl.scanCores()
		return RunResult{Cycles: cycles}, firstErr
	case st&stepTrapHalt != 0:
		trap, _ := cl.scanCores()
		return RunResult{Cycles: cycles, Halted: true, TrapCode: trap}, nil
	default:
		return RunResult{Cycles: cycles}, ErrDeadlock
	}
}

// scanCores picks the first trap code and first error in core-index order,
// replicating the reference loop's selection exactly. It runs once per Run
// termination, not per cycle.
func (cl *Cluster) scanCores() (trap int32, firstErr error) {
	for _, c := range cl.Cores {
		if c.Err != nil && firstErr == nil {
			firstErr = c.Err
		}
		if c.Halted && c.TrapCode != 0 && trap == 0 {
			trap = c.TrapCode
		}
	}
	return trap, firstErr
}

// runReference is the naive run loop kept as the differential baseline: it
// rescans every core after every cycle and never fast-forwards. It is
// selected by Config.ReferenceRun.
func (cl *Cluster) runReference(maxCycles uint64) (RunResult, error) {
	start := cl.now
	for cl.now-start < maxCycles {
		cl.Step()
		if cl.err != nil {
			return RunResult{Cycles: cl.now - start}, cl.err
		}
		if cl.eoc {
			return RunResult{Cycles: cl.now - start, EOC: true, EOCValue: cl.eocValue}, nil
		}
		halted, sleeping := 0, 0
		var firstErr error
		var trap int32
		for _, c := range cl.Cores {
			if c.Err != nil && firstErr == nil {
				firstErr = c.Err
			}
			if c.Halted {
				halted++
				if c.TrapCode != 0 && trap == 0 {
					trap = c.TrapCode
				}
			} else if c.Sleeping() {
				sleeping++
			}
		}
		if firstErr != nil {
			return RunResult{Cycles: cl.now - start}, firstErr
		}
		if halted == len(cl.Cores) {
			return RunResult{Cycles: cl.now - start, Halted: true, TrapCode: trap}, nil
		}
		if halted+sleeping == len(cl.Cores) && sleeping > 0 && halted > 0 {
			// Mixed halt/sleep: the master trapped while slaves sleep.
			return RunResult{Cycles: cl.now - start, Halted: true, TrapCode: trap}, nil
		}
		if sleeping == len(cl.Cores) && !cl.DMA.Busy() {
			return RunResult{Cycles: cl.now - start}, ErrDeadlock
		}
	}
	return RunResult{Cycles: cl.now - start}, fmt.Errorf("cluster: exceeded %d cycles", maxCycles)
}

// AttachTracer routes every core's retirement stream, sleep/wake
// transitions and the cluster-level events into the tracer. Attach before
// Start; pass nil to detach.
func (cl *Cluster) AttachTracer(tr *trace.Tracer) {
	cl.tracer = tr
	if tr != nil {
		// Per-instruction tracing forces the stepped path: a fused run
		// pre-executes instructions whose retire events could be cut
		// short by another core's termination or a window rollback, and
		// trace events cannot be unemitted.
		cl.fused = false
	}
	for _, c := range cl.Cores {
		if tr == nil {
			c.Trace = nil
			continue
		}
		id := c.ID
		c.Trace = func(cycle uint64, pc uint32, in isa.Inst) {
			tr.Emit(trace.Event{Cycle: cycle, Core: id, Kind: trace.KindRetire, PC: pc, Inst: in})
		}
	}
	cl.wireSleepHooks()
}

// AttachObs attaches the observability layer (DESIGN.md §10): per-core
// cycle attribution into o.Attr (allocated if nil) and, when o.TL is set,
// cycle-domain timeline spans from the cores, DMA engine, event unit and
// I$ refill engine. Attach before Start; pass nil to detach. Attaching
// never changes simulated timing — only counters and spans are recorded.
func (cl *Cluster) AttachObs(o *obs.Observer) {
	cl.obs = o
	var tl *obs.ClusterTL
	if o != nil {
		if o.Attr == nil {
			o.Attr = obs.NewAttribution(len(cl.Cores))
		}
		o.Attr.Ensure(len(cl.Cores))
		tl = o.TL
	}
	for i, c := range cl.Cores {
		if o == nil {
			c.Obs = nil
			continue
		}
		co := &o.Attr.Cores[i]
		co.TL = tl
		co.Tid = obs.TidCore0 + i
		c.Obs = co
	}
	cl.DMA.TL = tl
	cl.Evt.TL = tl
	if cl.IC != nil {
		cl.IC.TL = tl
	}
	cl.wireSleepHooks()
}

// obsTL returns the attached cycle-domain span recorder, or nil.
func (cl *Cluster) obsTL() *obs.ClusterTL {
	if cl.obs == nil {
		return nil
	}
	return cl.obs.TL
}

// wireSleepHooks installs (or removes) the per-core sleep-transition
// hooks. They are needed whenever a tracer wants sleep/wake events or a
// timeline wants run/sleep spans; transitions are rare, so the closures
// stay off the per-cycle path.
func (cl *Cluster) wireSleepHooks() {
	need := cl.tracer != nil || cl.obsTL() != nil
	for _, c := range cl.Cores {
		if !need {
			c.SleepHook = nil
			continue
		}
		c := c
		c.SleepHook = func(now uint64, kind cpu.SleepKind, sleeping bool) {
			cl.sleepWake(c, now, kind, sleeping)
		}
	}
}

func sleepKindName(k cpu.SleepKind) string {
	if k == cpu.SleepBarrier {
		return "barrier"
	}
	return "event"
}

// sleepWake handles one core sleep transition: trace events carry the
// credited sleep cycles on wake ("slept=N"), and the timeline gets the
// core's run span closed on sleep and its sleep span closed on wake.
func (cl *Cluster) sleepWake(c *cpu.Core, now uint64, kind cpu.SleepKind, sleeping bool) {
	mk := &cl.sleepMark[c.ID]
	tl := cl.obsTL()
	if sleeping {
		mk.start, mk.sleep0, mk.kind, mk.open = now, c.Stats.Sleep, kind, true
		if cl.tracer != nil {
			cl.tracer.Emit(trace.Event{Cycle: now, Core: c.ID, Kind: trace.KindSleep,
				Note: sleepKindName(kind)})
		}
		if tl != nil && mk.lastWake < now {
			tl.Span(obs.TidCore0+c.ID, "run", "run", mk.lastWake, now, nil)
		}
		return
	}
	slept := c.Stats.Sleep - mk.sleep0
	if cl.tracer != nil {
		cl.tracer.Emit(trace.Event{Cycle: now, Core: c.ID, Kind: trace.KindWake,
			Note: fmt.Sprintf("slept=%d (%s)", slept, sleepKindName(kind))})
	}
	if tl != nil && mk.open && mk.start < now {
		tl.Span(obs.TidCore0+c.ID, "sleep: "+sleepKindName(kind), "sleep", mk.start, now, nil)
	}
	mk.open = false
	mk.lastWake = now
}

// flushObs synthesizes the observability records a run's end would
// otherwise lose: cores still asleep get a wake event carrying the sleep
// cycles credited so far — including windows fast-forwarded by CreditIdle,
// which emit no per-cycle events — and open run/sleep spans are closed at
// the final cycle. Without this, trace-derived sleep totals disagree with
// CollectStats whenever a run ends while cores sleep (the normal case:
// slaves park in WFE before the master raises EOC).
func (cl *Cluster) flushObs() {
	if cl.tracer == nil && cl.obs == nil {
		return
	}
	tl := cl.obsTL()
	for i, c := range cl.Cores {
		mk := &cl.sleepMark[i]
		if mk.open {
			slept := c.Stats.Sleep - mk.sleep0
			if cl.tracer != nil {
				cl.tracer.Emit(trace.Event{Cycle: cl.now, Core: c.ID, Kind: trace.KindWake,
					Note: fmt.Sprintf("slept=%d (%s, end of run)", slept, sleepKindName(mk.kind))})
			}
			if tl != nil && mk.start < cl.now {
				tl.Span(obs.TidCore0+c.ID, "sleep: "+sleepKindName(mk.kind), "sleep", mk.start, cl.now, nil)
			}
			mk.open = false
			mk.sleep0 = c.Stats.Sleep
			mk.start = cl.now
		} else if tl != nil && !c.Halted && mk.lastWake < cl.now {
			tl.Span(obs.TidCore0+c.ID, "run", "run", mk.lastWake, cl.now, nil)
		}
		mk.lastWake = cl.now
	}
}

// --- cpu.Env -------------------------------------------------------------

var _ cpu.Env = (*Cluster)(nil)

// Access implements the cluster interconnect: TCDM with bank arbitration,
// event-unit and DMA register pages, SoC control, and L2 with latency.
func (cl *Cluster) Access(core int, store bool, addr, size, wdata uint32) (uint32, int, cpu.Status, error) {
	switch {
	case cl.TCDM.Contains(addr, size):
		if !cl.TCDM.Request(addr) {
			return 0, 0, cpu.AccessRetry, nil
		}
		if store {
			cl.TCDM.Write(addr, size, wdata)
			return 0, 0, cpu.AccessOK, nil
		}
		return cl.TCDM.Read(addr, size), 0, cpu.AccessOK, nil

	case addr >= hw.EvtBase && addr < hw.EvtBase+0x100:
		return cl.evtAccess(core, store, addr-hw.EvtBase, wdata)

	case addr >= hw.DMABase && addr < hw.DMABase+0x100:
		if store {
			if err := cl.DMA.WriteReg(addr-hw.DMABase, wdata); err != nil {
				return 0, 0, cpu.AccessOK, err
			}
			return 0, 0, cpu.AccessOK, nil
		}
		v, err := cl.DMA.ReadReg(addr - hw.DMABase)
		if addr-hw.DMABase == hw.DMAStatus && cl.DMA.Busy() {
			// A status poll that observed a busy engine is the dma_wait spin
			// loop: attribute the issuing cycle to DMAWait, not Issue.
			if o := cl.Cores[core].Obs; o != nil {
				o.MarkDMAPoll()
			}
		}
		return v, 0, cpu.AccessOK, err

	case addr >= hw.SoCCtlBase && addr < hw.SoCCtlBase+0x100:
		off := addr - hw.SoCCtlBase
		if store && off == hw.SoCEOC {
			if cl.SuppressEOC {
				if cl.tracer != nil {
					cl.tracer.Emit(trace.Event{Cycle: cl.now, Kind: trace.KindNote,
						Note: fmt.Sprintf("EOC store by core %d suppressed (stuck wire, fault injection)", core)})
				}
				return 0, 0, cpu.AccessOK, nil
			}
			cl.eoc = true
			cl.eocValue = wdata
			if cl.tracer != nil {
				cl.tracer.Emit(trace.Event{Cycle: cl.now, Kind: trace.KindNote,
					Note: fmt.Sprintf("EOC raised by core %d (value %d)", core, wdata)})
			}
			return 0, 0, cpu.AccessOK, nil
		}
		if !store && off == hw.SoCStatus {
			return 1, 0, cpu.AccessOK, nil
		}
		return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: unsupported SoC ctl access at +%#x", off)

	case cl.L2.Contains(addr, size):
		if store {
			cl.L2.Write(addr, size, wdata)
			return 0, cl.Cfg.L2Latency, cpu.AccessOK, nil
		}
		return cl.L2.Read(addr, size), cl.Cfg.L2Latency, cpu.AccessOK, nil
	}
	return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: access to unmapped address %#x", addr)
}

func (cl *Cluster) evtAccess(core int, store bool, off, wdata uint32) (uint32, int, cpu.Status, error) {
	switch off {
	case hw.EvtBarrierArrive:
		if !store {
			return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: read of barrier register")
		}
		wake, last := cl.Evt.Arrive(core, int(wdata))
		if last {
			cl.wake(wake)
			return 0, 0, cpu.AccessOK, nil
		}
		return 0, 0, cpu.AccessSleepBarrier, nil
	case hw.EvtSend:
		if !store {
			return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: read of event send register")
		}
		cl.wake(cl.Evt.Send(wdata))
		return 0, 0, cpu.AccessOK, nil
	case hw.EvtStatus:
		return cl.Evt.SleepMask(), 0, cpu.AccessOK, nil
	case hw.EvtMutexLock:
		if store {
			return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: store to mutex lock register")
		}
		if cl.Evt.TryLock(core) {
			return 1, 0, cpu.AccessOK, nil
		}
		// A contended mutex spins like a bank conflict but is synchronization
		// time, not memory pressure: retry under the Sync attribution class.
		return 0, 0, cpu.AccessRetrySync, nil
	case hw.EvtMutexUnlock:
		cl.Evt.Unlock()
		return 0, 0, cpu.AccessOK, nil
	}
	return 0, 0, cpu.AccessOK, fmt.Errorf("cluster: unknown event-unit register +%#x", off)
}

// wake wakes every core in the bitmask at the current cycle.
func (cl *Cluster) wake(mask uint32) {
	for mask != 0 {
		w := bits.TrailingZeros32(mask)
		mask &= mask - 1
		cl.Cores[w].Wake(cl.now)
	}
}

// WFE implements cpu.Env.
func (cl *Cluster) WFE(core int) bool { return cl.Evt.WFE(core) }

// SPR implements cpu.Env.
func (cl *Cluster) SPR(core int, spr int32) uint32 {
	switch spr {
	case isa.SprCoreID:
		return uint32(core)
	case isa.SprNumCore:
		return uint32(len(cl.Cores))
	case isa.SprCycleLo:
		return uint32(cl.now)
	case isa.SprCycleHi:
		return uint32(cl.now >> 32)
	}
	return 0
}

// --- dma.Memory ------------------------------------------------------------

// dmaMem adapts the cluster for the DMA engine.
type dmaMem Cluster

var _ dma.Memory = (*dmaMem)(nil)

func (m *dmaMem) ClaimTCDM(addr uint32) bool { return (*Cluster)(m).TCDM.Request(addr) }
func (m *dmaMem) IsTCDM(addr uint32) bool    { return (*Cluster)(m).TCDM.Contains(addr, 4) }

func (m *dmaMem) ReadWord(addr uint32) (uint32, error) {
	cl := (*Cluster)(m)
	switch {
	case cl.TCDM.Contains(addr, 4):
		return cl.TCDM.Read(addr, 4), nil
	case cl.L2.Contains(addr, 4):
		return cl.L2.Read(addr, 4), nil
	}
	return 0, fmt.Errorf("unmapped DMA read at %#x", addr)
}

func (m *dmaMem) WriteWord(addr uint32, v uint32) error {
	cl := (*Cluster)(m)
	switch {
	case cl.TCDM.Contains(addr, 4):
		cl.TCDM.Write(addr, 4, v)
		return nil
	case cl.L2.Contains(addr, 4):
		cl.L2.Write(addr, 4, v)
		return nil
	}
	return fmt.Errorf("unmapped DMA write at %#x", addr)
}

// --- PMU ---------------------------------------------------------------------

// Stats aggregates the performance counters the power model consumes,
// plus the fault-injection ledger (all zero on clean runs).
type Stats struct {
	Cycles     uint64
	Cores      []cpu.Stats
	DMABusy    uint64
	TCDMAccess uint64
	TCDMConf   uint64
	ICHits     uint64
	ICMisses   uint64

	// Injected-fault accounting (see AttachFaults).
	ICParity     uint64 // detected I-cache parity errors (refilled)
	TCDMFlips    uint64 // SEU bit-flips landed in TCDM words
	L2Flips      uint64 // SEU bit-flips landed in L2 words
	DMACorrupted uint64 // DMA beats corrupted in flight
}

// Retired sums retired instructions over all cores.
func (s Stats) Retired() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Retired
	}
	return n
}

// CollectStats snapshots the performance counters.
func (cl *Cluster) CollectStats() Stats {
	s := Stats{
		Cycles:     cl.now,
		DMABusy:    cl.DMA.BusyCycles,
		TCDMAccess: cl.TCDM.Accesses,
		TCDMConf:   cl.TCDM.Conflicts,
		Cores:      make([]cpu.Stats, 0, len(cl.Cores)),
	}
	s.TCDMFlips = cl.TCDM.Flips
	s.L2Flips = cl.L2.Flips
	s.DMACorrupted = cl.DMA.Corrupted
	if cl.IC != nil {
		s.ICHits = cl.IC.Hits
		s.ICMisses = cl.IC.Misses
		s.ICParity = cl.IC.ParityErrors
	}
	for _, c := range cl.Cores {
		s.Cores = append(s.Cores, c.Stats)
	}
	return s
}
