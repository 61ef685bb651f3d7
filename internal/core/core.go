// Package core implements the paper's primary contribution: the
// heterogeneous accelerator model coupling a commercial MCU host with the
// PULP parallel accelerator over a low-power SPI/QSPI link.
//
// A System bundles the three hardware pieces — host MCU (internal/mcu),
// link (internal/spilink) and accelerator cluster (internal/cluster) at a
// chosen voltage/frequency operating point — and implements the offload
// protocol of Section III:
//
//  1. the host parses the kernel's binary image and writes text, data and
//     the job descriptor into the accelerator L2 over the link;
//  2. per iteration, the host streams the input buffer into L2, raises the
//     fetch-enable GPIO, and sleeps;
//  3. the device runtime stages data into the TCDM by DMA, runs the kernel
//     on the OpenMP team, stages the output back and raises EOC;
//  4. the host wakes on the EOC GPIO and reads the output back.
//
// Every payload byte really crosses the simulated link and the kernel
// really executes on the cycle-accurate cluster, so the returned output is
// checked against golden models in the tests; time and energy are composed
// from the same measured phases, including the double-buffered pipeline of
// Fig. 5b where transfers overlap computation. Compose prices the same
// protocol around an already measured Compute without building a device:
// the link phases are charged, not moved, and the composition is Offload's.
//
// On top of the happy path the runtime is resilient: an EOC watchdog
// bounds how long the host waits for the accelerator, failed attempts are
// retried with exponential backoff (first a fresh fetch-enable edge, then
// a full reload over the link), the descriptor can be write-verified, and
// a host-fallback degrades gracefully to native MCU execution when the
// accelerator persistently fails. Combined with CRC link framing
// (internal/spilink) and the deterministic fault injector
// (internal/fault), every recovery action has a visible time/energy price
// in the Report. With all resilience options off and no injector attached
// the runtime is byte- and float-identical to the plain protocol.
package core

import (
	"bytes"
	"errors"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/fault"
	"hetsim/internal/hw"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/mcu"
	"hetsim/internal/obs"
	"hetsim/internal/power"
	"hetsim/internal/spilink"
	"hetsim/internal/trace"
)

// Typed offload failures, matchable with errors.Is. The link-level
// sentinels are re-exported so callers need only this package.
var (
	// ErrLinkCRC: a link burst kept failing its CRC check beyond the
	// retransmission limit.
	ErrLinkCRC = spilink.ErrLinkCRC
	// ErrLinkDropped: a link burst kept vanishing beyond the
	// retransmission limit.
	ErrLinkDropped = spilink.ErrLinkDropped
	// ErrEOCTimeout: one attempt ended without a usable end-of-computation
	// signal before the watchdog expired.
	ErrEOCTimeout = errors.New("core: end-of-computation watchdog expired")
	// ErrDeviceHang: the accelerator stayed unresponsive after every
	// configured retry, including full reloads.
	ErrDeviceHang = errors.New("core: accelerator unresponsive, recovery exhausted")
	// ErrDescriptorCorrupt: the job descriptor read back from device
	// memory kept mismatching what was written.
	ErrDescriptorCorrupt = errors.New("core: job descriptor corrupt in device memory")
)

// Config selects the three components of a heterogeneous system.
type Config struct {
	Host       power.MCUModel
	HostFreqHz float64

	// Lanes is the link width: 1 (plain SPI wires of the prototype) or 4
	// (the QSPI interface used for the Fig. 5b evaluation).
	Lanes int

	// LinkClockHz decouples the SPI clock from the MCU clock (0 keeps the
	// prototype behaviour, MCU clock / 2). Section V proposes exactly this:
	// "a low-power, high-throughput SPI link that is not tied to the MCU
	// core frequency".
	LinkClockHz float64

	// LinkCRC enables per-burst CRC-32 framing on the link: corruption and
	// loss are detected and retransmitted, at the price of 4 trailer bytes
	// per burst (see internal/spilink).
	LinkCRC bool

	// Accelerator operating point. AccFreqHz must not exceed the maximum
	// frequency of AccVdd.
	AccVdd    float64
	AccFreqHz float64

	// AccCluster overrides the accelerator cluster shape (default:
	// cluster.PULPConfig).
	AccCluster *cluster.Config
}

// System is an instantiated host+link+accelerator pair.
type System struct {
	Host   *mcu.Host
	Link   *spilink.Link
	AccCfg cluster.Config
	Vdd    float64
	FAcc   float64
}

// NewSystem validates the configuration and builds the system.
func NewSystem(cfg Config) (*System, error) {
	host, err := mcu.New(cfg.Host, cfg.HostFreqHz)
	if err != nil {
		return nil, err
	}
	if cfg.Lanes != 1 && cfg.Lanes != 4 {
		return nil, fmt.Errorf("core: link must have 1 or 4 lanes, got %d", cfg.Lanes)
	}
	if fm := power.FMaxAt(cfg.AccVdd); cfg.AccFreqHz <= 0 || cfg.AccFreqHz > fm {
		return nil, fmt.Errorf("core: accelerator frequency %.1f MHz exceeds f_max %.1f MHz at %.2f V",
			cfg.AccFreqHz/1e6, fm/1e6, cfg.AccVdd)
	}
	linkClock := cfg.LinkClockHz
	if linkClock == 0 {
		linkClock = host.SPIClock()
	}
	if linkClock < 0 || linkClock > 50e6 {
		return nil, fmt.Errorf("core: link clock %.1f MHz out of range (0..50]", linkClock/1e6)
	}
	// MaxBurst is left unset: spilink.New fills in spilink.DefaultMaxBurst.
	lcfg := spilink.Config{Lanes: cfg.Lanes, ClockHz: linkClock, CmdBytes: 9, CRC: cfg.LinkCRC}
	acc := cluster.PULPConfig()
	if cfg.AccCluster != nil {
		acc = *cfg.AccCluster
	}
	return &System{
		Host:   host,
		Link:   spilink.New(lcfg),
		AccCfg: acc,
		Vdd:    cfg.AccVdd,
		FAcc:   cfg.AccFreqHz,
	}, nil
}

// DefaultBackoffBase is the host-side wait before the first retry when
// Options.BackoffBase is unset (doubles per subsequent retry).
const DefaultBackoffBase = 100e-6 // seconds

// Options tunes one offload.
type Options struct {
	// Iterations is the number of benchmark iterations per offload (each
	// with its own input/output transfer), the x axis of Fig. 5b.
	Iterations int
	// DoubleBuffer overlaps the data transfer of iteration i+1 with the
	// computation of iteration i (the rightmost plot of Fig. 5b).
	DoubleBuffer bool
	// MaxCycles bounds the accelerator simulation (default 2e9).
	MaxCycles uint64
	// Sensor, when set, feeds the input buffer from a sensor instead of
	// from host memory (see internal/sensor). With ViaLink the sample
	// still crosses the SPI link after acquisition (the Figure 1 model);
	// without, it lands in accelerator L2 over a dedicated interface (the
	// Section V variant) and the link carries only control traffic.
	Sensor *SensorFeed

	// HostTaskFraction models the Section V scenario of "an additional,
	// separate task performed on the host at the same time": the fraction
	// of host cycles (0..0.9) consumed by that task. Link-driving phases
	// stretch by 1/(1-f), and the host never sleeps (it runs its task
	// while the accelerator computes), which raises the MCU energy.
	HostTaskFraction float64

	// --- Resilience. The zero value of every field below keeps the plain
	// --- happy-path protocol at zero extra cost.

	// WatchdogCycles bounds each attempt's wait for EOC, in accelerator
	// cycles (the host arms a timer when it raises fetch-enable). 0
	// disables the watchdog: the wait is bounded only by MaxCycles.
	WatchdogCycles uint64
	// Retries is how many times a failed attempt is recovered: the first
	// retry re-raises fetch-enable on the loaded state, every later one
	// reloads binary, descriptor and input over the link first.
	Retries int
	// BackoffBase is the host-side wait before retry k (BackoffBase·2^k
	// seconds, 0 = DefaultBackoffBase).
	BackoffBase float64
	// VerifyDescriptor reads the descriptor back after writing it and
	// rewrites on mismatch (up to Retries times), catching corruption the
	// link CRC cannot see. Costs one descriptor-sized read per check.
	VerifyDescriptor bool
	// HostFallback is the host-ISA build of the same kernel; when set,
	// exhausted recovery degrades gracefully to native MCU execution via
	// the Baseline path instead of failing the offload.
	HostFallback *asm.Program

	// Faults injects deterministic faults into the link and the offload
	// protocol for this offload (nil = clean hardware).
	Faults *fault.Injector
	// Tracer, when set, is attached to the cluster and additionally
	// receives offload-level fault/recovery events as KindNote.
	Tracer *trace.Tracer

	// Obs, when set, accumulates the per-core cycle attribution of every
	// cluster run of this offload (across retry attempts; see internal/obs).
	// Nil keeps the cluster's zero-cost fast paths.
	Obs *obs.Attribution
	// Timeline, when set, receives the offload-level span timeline: host
	// protocol phases, SPI bursts (incl. retransmissions), recovery events,
	// and the accelerator-side spans (core run/sleep, DMA transfers,
	// barriers, I$ refills) anchored to the wall clock of each attempt.
	// Timeline.Export writes Chrome trace-event JSON loadable in Perfetto.
	// The timeline shows the measured first iteration; further iterations
	// and the HostTaskFraction stretch are composed analytically into the
	// Report and marked with a summary instant, not expanded span by span.
	Timeline *obs.Timeline
}

// SensorFeed describes the per-iteration input acquisition path.
type SensorFeed struct {
	AcquireTime   float64 // seconds to move one sample over the sensor bus
	SampleEnergyJ float64 // acquisition energy per sample
	ViaLink       bool    // true: sensor -> MCU -> SPI; false: sensor -> L2
}

// Report is the full accounting of one offload.
type Report struct {
	// Sizes.
	BinaryBytes int
	InBytes     int
	OutBytes    int

	// Phase durations (seconds).
	BinTime     float64 // binary image + descriptor over the link
	InTime      float64 // one iteration's input transfer (incl. trigger)
	OutTime     float64 // one iteration's output transfer (incl. wake)
	ComputeTime float64 // one iteration on the accelerator

	Iterations   int
	DoubleBuffer bool

	TotalTime float64 // whole offload, all iterations (incl. recovery)
	IdealTime float64 // Iterations * ComputeTime (the Fig. 5b ideal)
	// Efficiency = IdealTime / TotalTime, the y axis of Fig. 5b.
	Efficiency float64

	ComputeCycles uint64
	Activity      power.Activity
	Energy        power.Energy

	// Power levels for reference (W).
	AccPowerW  float64 // accelerator while computing
	HostPowerW float64 // host while driving the link
	LinkPowerW float64 // link while clocking

	// Resilience accounting. All zero on a clean run.
	Retries            int     // recovery attempts actually performed
	WatchdogTrips      int     // attempts that ended without a usable EOC
	Retransmits        uint64  // link bursts repeated under CRC framing
	RetransmittedBytes uint64  // wire bytes spent on those repeats
	DescRewrites       int     // descriptor write-verify mismatches recovered
	FallbackUsed       bool    // the job ran on the host Baseline path
	RecoveryTime       float64 // seconds added by watchdog waits, backoff and reloads
	RecoveryEnergyJ    float64 // energy added by the same

	// Memory-fault accounting (see cluster.AttachFaults). Counters come
	// from the cluster of the final attempt; a full-reload retry rebuilds
	// the cluster, so faults absorbed by earlier attempts show up in the
	// injector's own Count(), not here.
	ParityErrors uint64 // detected I-cache parity errors (refill recovered)
	MemFlips     uint64 // SEU bit-flips landed in TCDM/L2 words
	DMACorrupted uint64 // DMA beats corrupted in flight
}

// gpioCycles is the cost of a GPIO edge plus interrupt entry on the host
// (fetch-enable trigger, EOC wake).
const gpioCycles = 20

// Compute is the cycle-domain result of an offload's compute step: what
// the cluster did, independent of where it runs. The paper's power model
// P = f·Σχ·ρ splits the same way — cycles and activity come from the PMU
// counters, while the V/f point, the link and the host clock only price
// them — so one measured Compute serves every host frequency, iteration
// count, buffering mode and link configuration (see Compose).
type Compute struct {
	Cycles   uint64
	Activity power.Activity
}

// ErrNeedsDevice: Compose was given an option that only a simulated
// device can honour (fault injection, tracing, attribution, timeline).
var ErrNeedsDevice = errors.New("core: option needs a simulated device (use Offload)")

// Offload runs one offload of the job and returns the device's output
// bytes plus the full time/energy report. With Options resilience fields
// set it survives link corruption, descriptor corruption and accelerator
// hangs up to the configured budgets, falling back to native host
// execution when HostFallback is provided.
func (s *System) Offload(job loader.Job, opts Options) ([]byte, *Report, error) {
	r, err := s.newRun(job, opts)
	if err != nil {
		return nil, nil, err
	}
	// Serialize once per call: the encoded text is what the link writes
	// into L2 (past the image's 36-byte header, which never crosses it).
	img, err := job.Prog.Image()
	if err != nil {
		return nil, nil, err
	}
	r.text = img[36 : 36+4*len(job.Prog.Text)]
	return r.run()
}

// Compose returns the Report of a clean offload of the job whose compute
// step is already known, without building a cluster: the link phases
// (binary, descriptor, per-iteration input and output) are charged on
// s.Link in the order Offload moves them, and the timeline and energy
// composition is the one Offload ends in. For the Compute of the job's
// own run on s.AccCfg the Report is identical to Offload's, field for
// field, including the link meter deltas. Options that need a live device
// (Faults, Tracer, Obs, Timeline) fail with ErrNeedsDevice, and a compute
// longer than the watchdog or MaxCycles budget fails too: the direct run
// would not complete on its first attempt.
func (s *System) Compose(job loader.Job, opts Options, c Compute) (*Report, error) {
	for _, o := range []struct {
		name string
		set  bool
	}{
		{"Faults", opts.Faults != nil},
		{"Tracer", opts.Tracer != nil},
		{"Obs", opts.Obs != nil},
		{"Timeline", opts.Timeline != nil},
	} {
		if o.set {
			return nil, fmt.Errorf("%w: %s", ErrNeedsDevice, o.name)
		}
	}
	r, err := s.newRun(job, opts)
	if err != nil {
		return nil, err
	}
	if c.Cycles > r.opts.WatchdogCycles {
		return nil, fmt.Errorf("core: compute of %d cycles exceeds the %d-cycle budget of one attempt",
			c.Cycles, r.opts.WatchdogCycles)
	}
	return r.compose(c)
}

// newRun validates the options and fills in their defaults: the state
// every offload, simulated or composed, starts from.
func (s *System) newRun(job loader.Job, opts Options) (*offloadRun, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 1
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 2_000_000_000
	}
	if job.Threads == 0 {
		job.Threads = uint32(s.AccCfg.Cores)
	}
	if opts.HostTaskFraction < 0 || opts.HostTaskFraction > 0.9 {
		return nil, fmt.Errorf("core: host task fraction %v out of [0, 0.9]", opts.HostTaskFraction)
	}
	if opts.Retries < 0 || opts.Retries > 16 {
		return nil, fmt.Errorf("core: retries %d out of [0, 16]", opts.Retries)
	}
	if opts.BackoffBase < 0 {
		return nil, fmt.Errorf("core: negative backoff base %v", opts.BackoffBase)
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.WatchdogCycles == 0 || opts.WatchdogCycles > opts.MaxCycles {
		opts.WatchdogCycles = opts.MaxCycles
	}
	if job.StackCores == 0 {
		job.StackCores = s.AccCfg.Cores
	}
	lay, err := loader.Plan(job, s.AccCfg.TCDMSize, s.AccCfg.L2Size)
	if err != nil {
		return nil, err
	}
	return &offloadRun{sys: s, job: job, opts: opts, lay: lay}, nil
}

// offloadRun carries the state of one Offload or Compose call: the
// measured phase times/energies, the recovery ledger and the live cluster
// and encoded text (both nil when composing).
type offloadRun struct {
	sys  *System
	job  loader.Job
	opts Options
	lay  loader.Layout
	text []byte
	acc  *cluster.Cluster

	// Happy-path phase measurements (seconds / joules on the link).
	tBin, eBin float64
	tIn, eIn   float64
	tOut, eOut float64

	// Recovery ledger.
	recActive    float64 // host driving the link or GPIO during recovery
	recSleep     float64 // host asleep: watchdog waits and backoff
	recAccActive float64 // accelerator busy during failed attempts
	recLinkE     float64 // link energy spent on recovery transfers
	trips        int
	retries      int
	descRewrites int

	// Link counters at offload start. The fallback path reports the energy
	// meter delta, which stays correct when a transfer dies mid-phase and
	// the per-phase snapshots never see its energy.
	retrans0, retransB0 uint64
	eLink0              float64

	// Observability. tl is the wall-clock timeline (nil unless
	// Options.Timeline is set), ctl the cycle-domain span recorder drained
	// after each cluster run, clk the host wall clock in seconds.
	tl  *obs.Timeline
	ctl *obs.ClusterTL
	clk float64
}

// hostSpan emits one host-side phase span on the protocol track and
// advances the host clock by its duration.
func (r *offloadRun) hostSpan(name, cat string, dur float64, args map[string]any) {
	if r.tl != nil {
		r.tl.Span(obs.PidHost, obs.TidPhases, name, cat, r.clk*1e6, dur*1e6, args)
	}
	r.clk += dur
}

// hostEvent drops an instant marker on the runtime-events track at the
// current host clock.
func (r *offloadRun) hostEvent(name string, args map[string]any) {
	if r.tl != nil {
		r.tl.Instant(obs.PidHost, obs.TidEvents, name, "recover", r.clk*1e6, args)
	}
}

// linkSeek aligns the link's burst cursor with the host clock before a
// link-driven phase.
func (r *offloadRun) linkSeek() {
	if r.tl != nil {
		r.sys.Link.TLSeek(r.clk)
	}
}

// nameTracks emits the process/thread metadata for the timeline's track
// layout (see internal/obs).
func (r *offloadRun) nameTracks() {
	s := r.sys
	r.tl.NameProcess(obs.PidHost, "host MCU ("+s.Host.Model.Name+")")
	r.tl.NameProcess(obs.PidAccel, fmt.Sprintf("PULP cluster (%d cores)", s.AccCfg.Cores))
	r.tl.NameThread(obs.PidHost, obs.TidPhases, "offload protocol")
	r.tl.NameThread(obs.PidHost, obs.TidLink, "SPI link")
	r.tl.NameThread(obs.PidHost, obs.TidEvents, "runtime events")
	for i := 0; i < s.AccCfg.Cores; i++ {
		r.tl.NameThread(obs.PidAccel, obs.TidCore0+i, fmt.Sprintf("core %d", i))
	}
	for i := 0; i < hw.NumDMAChannels; i++ {
		r.tl.NameThread(obs.PidAccel, obs.TidDMA0+i, fmt.Sprintf("dma ch %d", i))
	}
	r.tl.NameThread(obs.PidAccel, obs.TidSync, "barrier unit")
	r.tl.NameThread(obs.PidAccel, obs.TidICache, "icache refill")
}

// note emits an offload-level event into the attached tracer.
func (r *offloadRun) note(format string, args ...interface{}) {
	if r.opts.Tracer == nil {
		return
	}
	var cycle uint64
	if r.acc != nil {
		cycle = r.acc.Now()
	}
	r.opts.Tracer.Emit(trace.Event{Cycle: cycle, Kind: trace.KindNote,
		Note: "offload: " + fmt.Sprintf(format, args...)})
}

// bindLink attaches the offload's injector to the link and snapshots the
// link counters; the returned func detaches it again.
func (r *offloadRun) bindLink() (restore func()) {
	l := r.sys.Link
	prevInject := l.Inject
	l.Inject = r.opts.Faults
	r.retrans0, r.retransB0, r.eLink0 = l.Retransmits, l.RetransmittedBytes, l.EnergyJ
	return func() { l.Inject = prevInject }
}

func (r *offloadRun) run() ([]byte, *Report, error) {
	s := r.sys
	defer r.bindLink()()

	if r.opts.Timeline != nil {
		r.tl = r.opts.Timeline
		r.ctl = &obs.ClusterTL{}
		r.nameTracks()
		prevTL := s.Link.TL
		s.Link.TL, s.Link.TLPid, s.Link.TLTid = r.tl, obs.PidHost, obs.TidLink
		defer func() { s.Link.TL = prevTL }()
	}

	if err := r.buildCluster(); err != nil {
		return nil, nil, err
	}
	var err error
	r.linkSeek()
	if r.tBin, r.eBin, err = r.loadImage(); err != nil {
		return r.fail(err)
	}
	r.hostSpan("load image+descriptor", "phase", r.tBin, map[string]any{"bytes": r.job.Prog.Size()})
	r.linkSeek()
	if r.tIn, r.eIn, err = r.writeInput(); err != nil {
		return r.fail(err)
	}
	r.hostSpan("write input", "phase", r.tIn, map[string]any{"bytes": len(r.job.In)})

	res, err := r.attempts()
	if err != nil {
		return r.fail(err)
	}
	stats := r.acc.CollectStats()

	r.linkSeek()
	var out []byte
	if out, r.tOut, r.eOut, err = r.readOutput(); err != nil {
		return r.fail(err)
	}
	r.hostSpan("read output", "phase", r.tOut, map[string]any{"bytes": r.job.OutLen})
	if r.tl != nil && r.opts.Iterations > 1 {
		r.tl.Instant(obs.PidHost, obs.TidPhases,
			fmt.Sprintf("x%d iterations (first shown)", r.opts.Iterations), "phase", r.clk*1e6, nil)
	}

	rep := r.report(Compute{Cycles: res.Cycles, Activity: power.ActivityOf(stats)})
	rep.ParityErrors = stats.ICParity
	rep.MemFlips = stats.TCDMFlips + stats.L2Flips
	rep.DMACorrupted = stats.DMACorrupted
	return out, rep, nil
}

// compose is run without a device: the same link phases, in the same
// order, charged instead of moved, around a compute that is already known.
func (r *offloadRun) compose(c Compute) (*Report, error) {
	defer r.bindLink()()
	var err error
	if r.tBin, r.eBin, err = r.loadImage(); err != nil {
		return nil, err
	}
	if r.tIn, r.eIn, err = r.writeInput(); err != nil {
		return nil, err
	}
	if _, r.tOut, r.eOut, err = r.readOutput(); err != nil {
		return nil, err
	}
	return r.report(c), nil
}

// report composes the time and energy of the whole offload from the
// measured phases, the compute step and the recovery ledger: the one
// composition behind both Offload and Compose.
func (r *offloadRun) report(c Compute) *Report {
	s := r.sys
	tComp := float64(c.Cycles) / s.FAcc
	tBin, tIn, tOut, recActive := r.tBin, r.tIn, r.tOut, r.recActive
	// A concurrent host task steals cycles from every host-driven phase.
	if f := r.opts.HostTaskFraction; f > 0 {
		stretch := 1 / (1 - f)
		tBin *= stretch
		tIn *= stretch
		tOut *= stretch
		recActive *= stretch
	}

	// Timeline composition over the iterations, plus the recovery ledger.
	n := float64(r.opts.Iterations)
	var total float64
	if r.opts.DoubleBuffer {
		steady := tComp
		if xfer := tIn + tOut; xfer > steady {
			steady = xfer
		}
		total = tBin + tIn + (n-1)*steady + tComp + tOut
	} else {
		total = tBin + n*(tIn+tComp+tOut)
	}
	recT := recActive + r.recSleep
	total += recT
	ideal := n * tComp

	// Energy composition. The link energies are measured per phase from
	// the link's own meter (so CRC trailers and retransmissions are
	// priced), then scaled over the iterations like the timeline.
	xferTime := tBin + n*(tIn+tOut) + recActive
	computeTime := n*tComp + r.recAccActive
	accRun := power.PULPPowerW(s.Vdd, s.FAcc, c.Activity)
	accIdle := power.PULPPowerW(s.Vdd, s.FAcc, power.IdleActivity(s.AccCfg.Cores))
	idleTime := total - computeTime
	if idleTime < 0 {
		idleTime = 0
	}
	mcuJ := s.Host.RunPowerW()*xferTime + s.Host.Model.SleepW*(total-xferTime)
	if r.opts.HostTaskFraction > 0 {
		// The host runs its own task whenever it is not driving the link.
		mcuJ = s.Host.RunPowerW() * total
	}
	en := power.Energy{
		SPIJ:  r.eBin + n*(r.eIn+r.eOut) + r.recLinkE,
		MCUJ:  mcuJ,
		PULPJ: accRun*computeTime + accIdle*idleTime,
	}
	if r.opts.Sensor != nil {
		en.SensorJ = n * r.opts.Sensor.SampleEnergyJ
	}
	recE := 0.0
	if recT > 0 {
		recIdle := recT - r.recAccActive
		if recIdle < 0 {
			recIdle = 0
		}
		recE = r.recLinkE +
			s.Host.RunPowerW()*recActive + s.Host.Model.SleepW*r.recSleep +
			accRun*r.recAccActive + accIdle*recIdle
	}

	return &Report{
		BinaryBytes:        r.job.Prog.Size(),
		InBytes:            len(r.job.In),
		OutBytes:           int(r.job.OutLen),
		BinTime:            tBin,
		InTime:             tIn,
		OutTime:            tOut,
		ComputeTime:        tComp,
		Iterations:         r.opts.Iterations,
		DoubleBuffer:       r.opts.DoubleBuffer,
		TotalTime:          total,
		IdealTime:          ideal,
		Efficiency:         ideal / total,
		ComputeCycles:      c.Cycles,
		Activity:           c.Activity,
		Energy:             en,
		AccPowerW:          accRun,
		HostPowerW:         s.Host.RunPowerW(),
		LinkPowerW:         power.SPIPowerW(s.Link.Cfg.ClockHz, s.Link.Cfg.Lanes),
		Retries:            r.retries,
		WatchdogTrips:      r.trips,
		Retransmits:        s.Link.Retransmits - r.retrans0,
		RetransmittedBytes: s.Link.RetransmittedBytes - r.retransB0,
		DescRewrites:       r.descRewrites,
		RecoveryTime:       recT,
		RecoveryEnergyJ:    recE,
	}
}

// write moves data into accelerator L2 over the link. A composed offload
// has no device: it charges the same transfer without moving the bytes.
func (r *offloadRun) write(addr uint32, data []byte) (float64, error) {
	if r.acc == nil {
		return r.sys.Link.Charge(len(data), true)
	}
	return r.sys.Link.Write(r.acc.L2, addr, data)
}

// read moves n bytes out of accelerator L2 over the link; composed, it
// charges the transfer and returns no data.
func (r *offloadRun) read(addr, n uint32) ([]byte, float64, error) {
	if r.acc == nil {
		t, err := r.sys.Link.Charge(int(n), false)
		return nil, t, err
	}
	return r.sys.Link.Read(r.acc.L2, addr, n)
}

// buildCluster builds (or rebuilds, on a full reload) the accelerator and
// installs the job's program. The fault injector attaches before the
// program lands so the load itself is exposed to memory faults.
func (r *offloadRun) buildCluster() error {
	acc := cluster.New(r.sys.AccCfg)
	acc.AttachFaults(r.opts.Faults)
	// The predecoded text comes from the per-process memo: repeat
	// offloads, retries and parallel sweep workers running the same program
	// share one compilation (LoadCompiled decides per cluster whether fused
	// execution is on — faults or a tracer turn it off).
	comp, err := kernels.Compiled(r.job.Prog, r.sys.AccCfg.Target)
	if err != nil {
		return err
	}
	if err := acc.LoadCompiled(r.job.Prog, false, comp); err != nil {
		return err
	}
	acc.AttachTracer(r.opts.Tracer)
	if r.opts.Obs != nil || r.ctl != nil {
		// Attribution accumulates across full-reload rebuilds; the span
		// recorder is drained (with the attempt's wall-clock anchor) after
		// every cluster run.
		acc.AttachObs(&obs.Observer{Attr: r.opts.Obs, TL: r.ctl})
	}
	r.acc = acc
	return nil
}

// loadImage performs the host-side loader protocol: text, data and the
// job descriptor over the link, with optional write-verify of the
// descriptor. Returns the phase time and link energy. Composed, it
// charges the text's byte count without encoding it.
func (r *offloadRun) loadImage() (t, e float64, err error) {
	s := r.sys
	p := r.job.Prog
	e0 := s.Link.EnergyJ
	if r.acc == nil {
		t, err = s.Link.Charge(4*len(p.Text), true)
	} else {
		t, err = s.Link.Write(r.acc.L2, p.TextBase, r.text)
	}
	if err != nil {
		return 0, 0, err
	}
	if len(p.Data) > 0 {
		td, err := r.write(p.DataLMA, p.Data)
		if err != nil {
			return 0, 0, err
		}
		t += td
	}
	tDesc, err := r.writeDescriptor()
	if err != nil {
		return 0, 0, err
	}
	t += tDesc
	return t, s.Link.EnergyJ - e0, nil
}

// writeDescriptor writes the hw.Desc block, applies any injected
// descriptor corruption (a device-memory fault the link CRC cannot see),
// and — when write-verify is on — reads it back and rewrites on mismatch.
func (r *offloadRun) writeDescriptor() (t float64, err error) {
	desc := loader.Descriptor(r.job, r.lay)
	for rewrite := 0; ; rewrite++ {
		tw, err := r.write(hw.DescBase, desc)
		if err != nil {
			return t, err
		}
		t += tw
		if r.opts.Faults.DescCorrupt() {
			raw := r.acc.L2.ReadBytes(hw.DescBase, hw.DescSize)
			r.opts.Faults.CorruptBit(raw)
			if err := r.acc.L2.WriteBytes(hw.DescBase, raw); err != nil {
				return t, err
			}
			r.note("injected descriptor corruption in L2")
		}
		if !r.opts.VerifyDescriptor {
			return t, nil
		}
		back, tr, err := r.read(hw.DescBase, hw.DescSize)
		if err != nil {
			return t, err
		}
		t += tr
		// Without a device (composed) nothing can disturb what was written.
		if r.acc == nil || bytes.Equal(back, desc) {
			return t, nil
		}
		r.note("descriptor readback mismatch (rewrite %d)", rewrite+1)
		if rewrite >= r.opts.Retries {
			return t, fmt.Errorf("%w after %d rewrite(s)", ErrDescriptorCorrupt, rewrite)
		}
		r.descRewrites++
	}
}

// writeInput stages one iteration's input (host memory or sensor) and
// the fetch-enable trigger. Returns the phase time and link energy.
func (r *offloadRun) writeInput() (t, e float64, err error) {
	s := r.sys
	t = float64(gpioCycles) / s.Host.FreqHz
	inViaLink := true
	if r.opts.Sensor != nil {
		t += r.opts.Sensor.AcquireTime
		inViaLink = r.opts.Sensor.ViaLink
	}
	if len(r.job.In) > 0 {
		if inViaLink {
			e0 := s.Link.EnergyJ
			tw, err := r.write(r.lay.InLMA, r.job.In)
			if err != nil {
				return 0, 0, err
			}
			t += tw
			e = s.Link.EnergyJ - e0
		} else if r.acc != nil {
			// The sensor writes L2 directly, off the link (a composed
			// offload has no L2 to write).
			if err := r.acc.L2.WriteBytes(r.lay.InLMA, r.job.In); err != nil {
				return 0, 0, err
			}
		}
	}
	return t, e, nil
}

// readOutput is the EOC wake plus the transfer of the output buffer back
// to the host. Returns the output, the phase time and the link energy.
func (r *offloadRun) readOutput() (out []byte, t, e float64, err error) {
	s := r.sys
	t = float64(gpioCycles) / s.Host.FreqHz
	if r.job.OutLen > 0 {
		e0 := s.Link.EnergyJ
		data, tr, err := r.read(r.lay.OutLMA, r.job.OutLen)
		if err != nil {
			return nil, 0, 0, err
		}
		out = data
		t += tr
		e = s.Link.EnergyJ - e0
	}
	return out, t, e, nil
}

// attempts drives the retry state machine: run under the watchdog, then
// back off and re-trigger, then back off and fully reload, until the
// budget is exhausted.
func (r *offloadRun) attempts() (cluster.RunResult, error) {
	s := r.sys
	maxAttempts := 1 + r.opts.Retries
	var res cluster.RunResult
	var cause error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			r.retries++
			backoff := r.opts.BackoffBase * float64(uint64(1)<<uint(attempt-1))
			r.recSleep += backoff
			r.hostSpan(fmt.Sprintf("backoff %d", attempt), "recover", backoff, nil)
			if attempt == 1 {
				// First retry: the cheapest plausible recovery, a fresh
				// fetch-enable edge on the already-loaded state.
				r.recActive += float64(gpioCycles) / s.Host.FreqHz
				r.hostEvent("retry: re-raise fetch-enable", nil)
				r.note("retry %d: re-raising fetch-enable after %.2f ms backoff", attempt, backoff*1e3)
			} else {
				// Later retries assume device state is lost: rebuild the
				// cluster and replay the whole load protocol.
				r.note("retry %d: full reload after %.2f ms backoff", attempt, backoff*1e3)
				if err := r.buildCluster(); err != nil {
					return res, err
				}
				r.linkSeek()
				trl, el, err := r.loadImage()
				if err != nil {
					return res, err
				}
				r.hostSpan("reload image+descriptor", "recover", trl, nil)
				r.linkSeek()
				ti, ei, err := r.writeInput()
				if err != nil {
					return res, err
				}
				r.hostSpan("rewrite input", "recover", ti, nil)
				r.recActive += trl + ti
				r.recLinkE += el + ei
			}
		}
		hang := r.opts.Faults.EOCHang()
		r.acc.SuppressEOC = hang
		if hang {
			r.note("injecting EOC hang for attempt %d", attempt+1)
		}
		r.acc.Start(r.job.Prog.Entry)
		c0 := r.acc.Now()
		base := r.clk
		var err error
		res, err = r.acc.Run(r.opts.WatchdogCycles)
		ran := float64(r.acc.Now()-c0) / s.FAcc
		if r.ctl != nil {
			// Anchor this attempt's accelerator spans: cluster cycle c0 maps
			// to the host clock at fetch-enable.
			r.ctl.DrainInto(r.tl, obs.PidAccel, c0, base*1e6, 1e6/s.FAcc)
		}
		if err == nil && res.EOC && res.EOCValue == 1 {
			r.hostSpan(fmt.Sprintf("compute (attempt %d)", attempt+1), "phase", ran,
				map[string]any{"cycles": res.Cycles})
			if attempt > 0 {
				r.note("attempt %d completed after %d watchdog trip(s)", attempt+1, r.trips)
			}
			return res, nil
		}
		r.trips++
		switch {
		case err != nil:
			cause = fmt.Errorf("%w: %v", ErrEOCTimeout, err)
		case res.Halted:
			cause = fmt.Errorf("%w: device halted (trap %d) without EOC", ErrEOCTimeout, res.TrapCode)
		default:
			cause = fmt.Errorf("%w: EOC value %d", ErrEOCTimeout, res.EOCValue)
		}
		// The host cannot see why the device wedged; it sleeps out the
		// full watchdog window. The device was only active until the
		// simulator saw it stop.
		wait := float64(r.opts.WatchdogCycles) / s.FAcc
		active := float64(res.Cycles) / s.FAcc
		if active > wait {
			wait = active
		}
		r.recSleep += wait
		r.recAccActive += active
		r.hostSpan("watchdog wait", "recover", wait, nil)
		r.hostEvent(fmt.Sprintf("watchdog trip %d", r.trips),
			map[string]any{"attempt": attempt + 1, "cause": cause.Error()})
		r.note("watchdog trip %d on attempt %d: %v", r.trips, attempt+1, cause)
	}
	return res, fmt.Errorf("%w after %d attempt(s), %d watchdog trip(s); last: %w",
		ErrDeviceHang, maxAttempts, r.trips, cause)
}

// fail ends the offload: with a HostFallback program it degrades to
// native MCU execution (the accelerator-less path of Fig. 1), otherwise
// it surfaces the typed error.
func (r *offloadRun) fail(cause error) ([]byte, *Report, error) {
	s := r.sys
	if r.opts.HostFallback == nil {
		return nil, nil, fmt.Errorf("core: offloaded %s: %w", r.job.Prog.Name, cause)
	}
	r.note("falling back to host execution: %v", cause)
	r.hostEvent("fallback to host execution", map[string]any{"cause": cause.Error()})
	// The fallback runs the host build's own compilation, never the
	// accelerator code the job may carry.
	fjob := r.job
	fjob.Prog = r.opts.HostFallback
	comp, err := kernels.Compiled(fjob.Prog, s.Host.Model.Target)
	if err != nil {
		return nil, nil, err
	}
	fjob.Compiled = comp
	base, err := s.Baseline(fjob, r.opts.MaxCycles)
	if err != nil {
		return nil, nil, fmt.Errorf("core: offloaded %s: %w; host fallback also failed: %v",
			r.job.Prog.Name, cause, err)
	}

	// Everything spent on the accelerator path was wasted; the useful work
	// is n native iterations.
	n := float64(r.opts.Iterations)
	wasted := r.tBin + r.tIn + r.recActive + r.recSleep
	total := wasted + n*base.Seconds
	ideal := n * base.Seconds
	accIdle := power.PULPPowerW(s.Vdd, s.FAcc, power.IdleActivity(s.AccCfg.Cores))
	// Link energy is the meter delta for this offload, not the sum of the
	// per-phase snapshots: a transfer that dies mid-phase has already
	// charged the meter for every wire byte it moved (spilink accounts
	// failed bursts too), but the phase reports zero energy to its caller,
	// so composing eBin+eIn+recLinkE undercounts exactly the failed phase.
	linkE := s.Link.EnergyJ - r.eLink0
	wastedE := linkE +
		s.Host.RunPowerW()*(r.tBin+r.tIn+r.recActive) + s.Host.Model.SleepW*r.recSleep +
		accIdle*wasted
	en := power.Energy{
		SPIJ:  linkE,
		MCUJ:  s.Host.RunPowerW()*(r.tBin+r.tIn+r.recActive) + s.Host.Model.SleepW*r.recSleep + n*base.EnergyJ,
		PULPJ: accIdle * wasted,
	}
	r.hostSpan(fmt.Sprintf("host execution x%d", r.opts.Iterations), "fallback", n*base.Seconds, nil)
	if r.opts.Sensor != nil {
		en.SensorJ = n * r.opts.Sensor.SampleEnergyJ
	}
	rep := &Report{
		BinaryBytes:        r.job.Prog.Size(),
		InBytes:            len(r.job.In),
		OutBytes:           int(r.job.OutLen),
		BinTime:            r.tBin,
		InTime:             r.tIn,
		ComputeTime:        base.Seconds,
		Iterations:         r.opts.Iterations,
		DoubleBuffer:       r.opts.DoubleBuffer,
		TotalTime:          total,
		IdealTime:          ideal,
		Efficiency:         ideal / total,
		ComputeCycles:      uint64(base.Cycles),
		Energy:             en,
		AccPowerW:          accIdle,
		HostPowerW:         s.Host.RunPowerW(),
		LinkPowerW:         power.SPIPowerW(s.Link.Cfg.ClockHz, s.Link.Cfg.Lanes),
		Retries:            r.retries,
		WatchdogTrips:      r.trips,
		Retransmits:        s.Link.Retransmits - r.retrans0,
		RetransmittedBytes: s.Link.RetransmittedBytes - r.retransB0,
		DescRewrites:       r.descRewrites,
		FallbackUsed:       true,
		RecoveryTime:       wasted,
		RecoveryEnergyJ:    wastedE,
	}
	return base.Out, rep, nil
}

// Baseline runs the job natively on the host MCU for comparison.
func (s *System) Baseline(job loader.Job, maxCycles uint64) (*mcu.BaselineResult, error) {
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	return s.Host.RunBaseline(job, maxCycles)
}

// TotalComputePowerW is the system power while the accelerator computes
// and the host sleeps — the quantity constrained to 10 mW in Fig. 5a.
func (s *System) TotalComputePowerW(act power.Activity) float64 {
	return power.PULPPowerW(s.Vdd, s.FAcc, act) + s.Host.Model.SleepW
}
