// Package chaos is the memory-fault campaign engine: it fans seeded
// fault-injection campaigns — kernels × fault classes × rates × N trials
// — through the internal/sweep worker pool, runs every trial as a full
// offload on the resilient runtime (internal/core), classifies each
// trial's outcome against the kernel's golden output, and renders a
// deterministic reliability report (recovery coverage, silent-data-
// corruption rate, mean recovery overhead in cycles and joules).
//
// Determinism is the load-bearing property: every trial owns a private
// injector whose seed derives from (campaign seed, kernel, class, rate,
// trial index) alone, so the same campaign spec produces a byte-identical
// report at any worker count and on a warm run cache. Trials are
// individually cacheable sweep jobs — the fault knobs are part of the
// content key — so re-rendering a campaign after an interrupt re-simulates
// only what is missing.
//
// Trial taxonomy (every trial lands in exactly one class):
//
//	clean            no fault fired; output matches golden
//	recovered        faults fired but were absorbed benignly (flip hit a
//	                 dead word); output matches with no recovery action
//	detected-retried a detector fired (CRC, watchdog, descriptor verify,
//	                 I$ parity, end-to-end acceptance check) and recovery
//	                 delivered a correct output on the accelerator
//	sdc              the offload reported success but the output checksum
//	                 differs from golden — silent data corruption
//	hang-fallback    recovery was exhausted: the job ran on the host
//	                 fallback path (or failed outright; see Trial.Err)
//
// The end-to-end acceptance check models an application-level output
// checksum: when a trial's output mismatches golden and E2ERetries allows,
// the whole offload is retried under the same (still advancing) fault
// stream, and the wasted attempt is billed as recovery overhead. Without
// it, corrupted outputs count as SDC — never as clean paper numbers.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"hetsim/internal/core"
	"hetsim/internal/devrt"
	"hetsim/internal/fault"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/paper"
	"hetsim/internal/power"
	"hetsim/internal/sweep"
)

// Campaign specifies one chaos run. The zero value of every optional
// field selects the documented default.
type Campaign struct {
	Kernels []*kernels.Instance // required: the kernels under test
	Classes []fault.Class       // fault classes to campaign (default fault.MemClasses)
	Rates   []float64           // per-decision fault rates (default 1e-5, 1e-4)
	Trials  int                 // trials per (kernel, class, rate) cell (default 8)
	Seed    uint64              // campaign seed (default 1)
	// MaxFaults bounds each trial's injector (0 = unlimited).
	MaxFaults int
	// InputSeed seeds the kernel input generator (default 1, the paper's).
	InputSeed uint64

	// System under test (defaults: STM32-L476 @ 16 MHz, QSPI, 0.8 V /
	// 200 MHz accelerator).
	Host       power.MCUModel
	HostFreqHz float64
	Lanes      int
	AccVdd     float64
	AccFreqHz  float64

	// Resilience armament of the offload runtime. CRC framing and
	// descriptor write-verify are always on — a chaos campaign measures
	// the armed runtime; the disarmed one is PR 1's silent-fault study.
	WatchdogCycles uint64 // per-attempt EOC watchdog (default 2e6 cycles)
	Retries        int    // offload retry budget (default 2)
	// E2ERetries is the application-level acceptance-check budget: how
	// many times a trial whose output fails the golden checksum re-runs
	// the whole offload (default 1; negative disables the check so every
	// corrupted output counts as SDC).
	E2ERetries int
	MaxCycles  uint64 // per-attempt simulation bound (default 2e8)
}

// withDefaults fills unset fields and validates the campaign by probing
// the system configuration once.
func (c Campaign) withDefaults() (Campaign, error) {
	if len(c.Kernels) == 0 {
		return c, fmt.Errorf("chaos: campaign has no kernels")
	}
	if len(c.Classes) == 0 {
		c.Classes = fault.MemClasses
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1e-5, 1e-4}
	}
	for _, r := range c.Rates {
		if !(r >= 0 && r <= 1) {
			return c, fmt.Errorf("chaos: rate %v out of [0, 1]", r)
		}
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.InputSeed == 0 {
		c.InputSeed = 1
	}
	if c.Host.Name == "" {
		host, err := power.MCUByName("STM32-L476")
		if err != nil {
			return c, err
		}
		c.Host = host
	}
	if c.HostFreqHz == 0 {
		c.HostFreqHz = 16e6
	}
	if c.Lanes == 0 {
		c.Lanes = 4
	}
	if c.AccVdd == 0 {
		c.AccVdd = 0.8
	}
	if c.AccFreqHz == 0 {
		c.AccFreqHz = 200e6
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = 2_000_000
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.E2ERetries == 0 {
		c.E2ERetries = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 200_000_000
	}
	if _, err := core.NewSystem(c.sysConfig()); err != nil {
		return c, fmt.Errorf("chaos: invalid system: %w", err)
	}
	return c, nil
}

func (c *Campaign) sysConfig() core.Config {
	return core.Config{
		Host: c.Host, HostFreqHz: c.HostFreqHz, Lanes: c.Lanes,
		AccVdd: c.AccVdd, AccFreqHz: c.AccFreqHz, LinkCRC: true,
	}
}

// Verdict is the classification of one trial (see the package comment).
type Verdict string

const (
	VerdictClean    Verdict = "clean"
	VerdictRecov    Verdict = "recovered"
	VerdictDetected Verdict = "detected-retried"
	VerdictSDC      Verdict = "sdc"
	VerdictHang     Verdict = "hang-fallback"
)

// Verdicts lists every classification, in report order.
var Verdicts = []Verdict{VerdictClean, VerdictRecov, VerdictDetected, VerdictSDC, VerdictHang}

// Trial is the cacheable outcome of one fault-injection trial.
type Trial struct {
	Verdict  Verdict
	Injected int  // faults the injector fired across all attempts
	OutputOK bool // final delivered output matched golden

	// Recovery machinery engaged, summed over e2e attempts.
	Retries       int
	WatchdogTrips int
	Retransmits   uint64
	DescRewrites  int
	ParityErrors  int // injected parity upsets (each detected by design)
	E2ERetries    int // whole-offload retries forced by the acceptance check
	Fallback      bool

	// Recovery overhead: everything beyond a fault-free offload, in
	// accelerator cycles and joules (failed e2e attempts billed in full).
	RecoveryCycles  float64
	RecoveryEnergyJ float64

	Err string // terminal error or recovered panic, when any
}

// checksum fingerprints an output buffer for golden comparison.
func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// trialSeed derives the private injector seed of one trial from the
// campaign coordinates, and nothing else — the anchor of report
// determinism at any worker count.
func trialSeed(seed uint64, kernel int, class fault.Class, rate float64, trial int) uint64 {
	return fault.DeriveSeed(seed, uint64(kernel), uint64(class), math.Float64bits(rate), uint64(trial))
}

// runTrial executes one trial: up to 1+E2ERetries full offloads under a
// single advancing fault stream, classified against the golden checksum.
// A panic anywhere inside the simulator is recovered into a hang-fallback
// verdict so one pathological trial cannot kill the campaign.
func (c *Campaign) runTrial(job loader.Job, hostProg loader.Job, golden string, seed uint64, class fault.Class, rate float64) (t Trial) {
	defer func() {
		if p := recover(); p != nil {
			t.Verdict = VerdictHang
			t.OutputOK = false
			t.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	fcfg := fault.Config{Seed: seed, MaxFaults: c.MaxFaults}
	fcfg.SetRate(class, rate)
	inj := fault.New(fcfg)

	var recT, recE float64
	maxAttempts := 1 + c.E2ERetries
	if maxAttempts < 1 {
		maxAttempts = 1 // negative E2ERetries: acceptance check disabled
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sys, err := core.NewSystem(c.sysConfig())
		if err != nil {
			t.Verdict = VerdictHang
			t.Err = err.Error()
			break
		}
		out, rep, err := sys.Offload(job, core.Options{
			Iterations:       1,
			MaxCycles:        c.MaxCycles,
			WatchdogCycles:   c.WatchdogCycles,
			Retries:          c.Retries,
			VerifyDescriptor: true,
			HostFallback:     hostProg.Prog,
			Faults:           inj,
		})
		if err != nil {
			// Recovery and fallback both exhausted.
			t.Verdict = VerdictHang
			t.Err = err.Error()
			break
		}
		t.Retries += rep.Retries
		t.WatchdogTrips += rep.WatchdogTrips
		t.Retransmits += rep.Retransmits
		t.DescRewrites += rep.DescRewrites
		recT += rep.RecoveryTime
		recE += rep.RecoveryEnergyJ
		ok := checksum(out) == golden
		if rep.FallbackUsed {
			t.Verdict = VerdictHang
			t.Fallback = true
			t.OutputOK = ok
			break
		}
		if ok {
			t.OutputOK = true
			break
		}
		if attempt+1 >= maxAttempts {
			t.Verdict = VerdictSDC
			break
		}
		// Acceptance check caught a corrupted output: the whole attempt
		// was overhead; retry under the same fault stream.
		t.E2ERetries++
		recT += rep.TotalTime
		recE += rep.Energy.TotalJ()
	}
	t.Injected = inj.Injected()
	t.ParityErrors = inj.Count(fault.ICacheParity)
	if t.Verdict == "" {
		// The accelerator delivered a correct output.
		detected := t.Retries > 0 || t.WatchdogTrips > 0 || t.Retransmits > 0 ||
			t.DescRewrites > 0 || t.E2ERetries > 0 || t.ParityErrors > 0
		switch {
		case t.Injected == 0:
			t.Verdict = VerdictClean
		case detected:
			t.Verdict = VerdictDetected
		default:
			t.Verdict = VerdictRecov
		}
	}
	t.RecoveryCycles = recT * c.AccFreqHz
	t.RecoveryEnergyJ = recE
	return t
}

// Cell is one (kernel, class, rate) point of the campaign grid with its
// classified trials, in trial order.
type Cell struct {
	Kernel string
	Class  string
	Rate   float64
	Trials []Trial
}

// Report is a completed (or interrupted) campaign.
type Report struct {
	Seed          uint64
	TrialsPerCell int
	Cells         []Cell
	// Partial marks an interrupted campaign: Cells holds the completed
	// prefix in campaign order, everything after the interrupt is absent.
	Partial bool
}

// Run executes the campaign on the engine's worker pool. Each trial is
// one cacheable sweep job; cells are scheduled in campaign order, so an
// interrupt (the engine's context) yields a report whose Cells are the
// completed prefix, returned alongside the cancellation error. Any other
// error also returns the partial report.
func (c Campaign) Run(eng *sweep.Engine) (*Report, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: c.Seed, TrialsPerCell: c.Trials}
	for ki, k := range c.Kernels {
		in := k.Input(c.InputSeed)
		golden := checksum(k.Golden(in))
		accProg, err := k.Build(isa.PULPFull, devrt.Accel)
		if err != nil {
			return rep, err
		}
		hostProg, err := k.Build(c.Host.Target, devrt.Host)
		if err != nil {
			return rep, err
		}
		accHash, err := kernels.HashProgram(accProg)
		if err != nil {
			return rep, err
		}
		hostHash, err := kernels.HashProgram(hostProg)
		if err != nil {
			return rep, err
		}
		job := loader.Job{Prog: accProg, In: in, OutLen: k.OutLen(), Iters: 1, Args: k.Args()}
		fallback := loader.Job{Prog: hostProg}
		for _, class := range c.Classes {
			for _, rate := range c.Rates {
				if err := eng.Context().Err(); err != nil {
					rep.Partial = true
					return rep, err
				}
				jobs := make([]sweep.Job[Trial], c.Trials)
				for ti := 0; ti < c.Trials; ti++ {
					seed := trialSeed(c.Seed, ki, class, rate, ti)
					class, rate := class, rate
					jobs[ti] = sweep.Job[Trial]{
						Key: c.trialKey(k, in, accHash, hostHash, class, rate, ti, seed),
						Run: func() (Trial, error) {
							return c.runTrial(job, fallback, golden, seed, class, rate), nil
						},
					}
				}
				trials, err := sweep.Run(eng, jobs)
				if err != nil {
					rep.Partial = true
					return rep, err
				}
				rep.Cells = append(rep.Cells, Cell{Kernel: k.Name, Class: class.String(), Rate: rate, Trials: trials})
			}
		}
	}
	return rep, nil
}

// trialKey pins down everything a trial's outcome depends on: programs,
// input, the full system shape, the resilience armament, the fault
// coordinates and the model fingerprint — so the run cache can never
// serve a stale trial for a changed campaign or model, and a repeated
// campaign is pure cache hits.
func (c *Campaign) trialKey(k *kernels.Instance, in []byte, accHash, hostHash string, class fault.Class, rate float64, trial int, seed uint64) string {
	return fmt.Sprintf("chaos|kernel=%s(%s)|in=%s|outlen=%d|args=%x|acc=%s|fb=%s|host=%s@%g|lanes=%d|vdd=%g|facc=%g|wd=%d|retries=%d|e2e=%d|max=%d|maxfaults=%d|class=%s|rate=%g|trial=%d|seed=%d|model=%s",
		k.Name, k.ParamDesc, checksum(in), k.OutLen(), k.Args(), accHash, hostHash,
		c.Host.Name, c.HostFreqHz, c.Lanes, c.AccVdd, c.AccFreqHz,
		c.WatchdogCycles, c.Retries, c.E2ERetries, c.MaxCycles, c.MaxFaults,
		class, rate, trial, seed, paper.ModelFingerprint())
}
