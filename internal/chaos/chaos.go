// Package chaos is the memory-fault campaign engine: it fans seeded
// fault-injection campaigns — kernels × fault classes × rates × N trials
// — through the internal/sweep worker pool, runs every trial as a full
// offload on the resilient runtime (internal/core), classifies each
// trial's outcome against the kernel's golden output, and renders a
// deterministic reliability report (recovery coverage, silent-data-
// corruption rate, mean recovery overhead in cycles and joules).
//
// Every trial runs on one fixed system (see system): a campaign chooses
// only what to inject, never the hardware it lands on.
//
// Determinism is the load-bearing property: every trial owns a private
// injector whose seed derives from (campaign seed, kernel, class, rate,
// trial index) alone, so the same campaign spec produces a byte-identical
// report at any worker count and on a warm run cache. Trials are
// individually cacheable sweep jobs keyed like campaign points — what the
// trial asks for plus the model fingerprint, which covers the fault model
// through testdata/drill.golden — so re-rendering a campaign after an
// interrupt re-simulates only what is missing, and a cache hit builds
// nothing.
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
	"sync"

	"hetsim/internal/asm"
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

// system is the system under test of every trial: an STM32-L476 host at
// 16 MHz, a CRC-framed four-lane QSPI link, and the accelerator at
// 0.8 V / 200 MHz.
var system = core.Config{
	Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4,
	AccVdd: 0.8, AccFreqHz: 200e6, LinkCRC: true,
}

// The resilience armament of the offload runtime, and the inputs. CRC
// framing and descriptor write-verify are always on — a chaos campaign
// measures the armed runtime; the disarmed one is the silent-fault study
// of cmd/hetsim.
const (
	watchdogCycles = 2_000_000   // per-attempt EOC watchdog
	offloadRetries = 2           // offload retry budget
	maxCycles      = 200_000_000 // per-attempt simulation bound
	inputSeed      = 1           // kernel input generator seed (the paper's)
)

// Campaign specifies one chaos run. The zero value of every optional
// field selects the documented default.
type Campaign struct {
	Kernels []*kernels.Instance // required: the kernels under test
	Classes []fault.Class       // fault classes to campaign (default fault.MemClasses)
	Rates   []float64           // per-decision fault rates (default 1e-5, 1e-4)
	Trials  int                 // trials per (kernel, class, rate) cell (default 8)
	Seed    uint64              // campaign seed (default 1)
	// E2ERetries is the application-level acceptance-check budget: how
	// many times a trial whose output fails the golden checksum re-runs
	// the whole offload (default 1; negative disables the check so every
	// corrupted output counts as SDC).
	E2ERetries int
}

// withDefaults fills unset fields and validates the rates.
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
	if c.E2ERetries == 0 {
		c.E2ERetries = 1
	}
	return c, nil
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
func (c *Campaign) runTrial(tk *trialKernel, seed uint64, class fault.Class, rate float64) (t Trial) {
	defer func() {
		if p := recover(); p != nil {
			t.Verdict = VerdictHang
			t.OutputOK = false
			t.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	fcfg := fault.Config{Seed: seed}
	fcfg.SetRate(class, rate)
	inj := fault.New(fcfg)

	var recT, recE float64
	maxAttempts := 1 + c.E2ERetries
	if maxAttempts < 1 {
		maxAttempts = 1 // negative E2ERetries: acceptance check disabled
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sys, err := core.NewSystem(system)
		if err != nil {
			t.Verdict = VerdictHang
			t.Err = err.Error()
			break
		}
		out, rep, err := sys.Offload(tk.job, core.Options{
			Iterations:       1,
			MaxCycles:        maxCycles,
			WatchdogCycles:   watchdogCycles,
			Retries:          offloadRetries,
			VerifyDescriptor: true,
			HostFallback:     tk.fallback,
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
		ok := checksum(out) == tk.golden
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
	t.RecoveryCycles = recT * system.AccFreqHz
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
		// Built on the first cache miss among the kernel's trials, and
		// shared by all of them; a warm campaign builds nothing.
		prep := sync.OnceValues(func() (*trialKernel, error) { return buildTrialKernel(k) })
		for _, class := range c.Classes {
			for _, rate := range c.Rates {
				if err := eng.Context().Err(); err != nil {
					rep.Partial = true
					return rep, err
				}
				jobs := make([]sweep.Job[Trial], c.Trials)
				for ti := range jobs {
					seed := trialSeed(c.Seed, ki, class, rate, ti)
					jobs[ti] = sweep.Job[Trial]{
						Key: c.trialKey(k, class, rate, ti, seed),
						Run: func() (Trial, error) {
							tk, err := prep()
							if err != nil {
								return Trial{}, err
							}
							return c.runTrial(tk, seed, class, rate), nil
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

// trialKernel is what every trial of one kernel runs: the accelerator
// job, the host fallback program and the golden output checksum.
type trialKernel struct {
	job      loader.Job
	fallback *asm.Program
	golden   string
}

// buildTrialKernel emits the kernel's accelerator and host programs and
// its input and golden checksum at the paper's input seed.
func buildTrialKernel(k *kernels.Instance) (*trialKernel, error) {
	in := k.Input(inputSeed)
	acc, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		return nil, err
	}
	host, err := k.Build(system.Host.Target, devrt.Host)
	if err != nil {
		return nil, err
	}
	return &trialKernel{
		job:      loader.Job{Prog: acc, In: in, OutLen: k.OutLen(), Iters: 1, Args: k.Args()},
		fallback: host,
		golden:   checksum(k.Golden(in)),
	}, nil
}

// trialKey names what a trial asks for — the kernel, the fixed system and
// armament, the acceptance-check budget and the fault coordinates — plus
// the model fingerprint, which stands for the programs, the input, the
// golden output and the fault model. Forming a key builds nothing.
func (c *Campaign) trialKey(k *kernels.Instance, class fault.Class, rate float64, trial int, seed uint64) string {
	return fmt.Sprintf("chaos|kernel=%s(%s)|outlen=%d|args=%x|host=%s@%g|lanes=%d|crc=%t|vdd=%g|facc=%g|wd=%d|retries=%d|max=%d|e2e=%d|class=%s|rate=%g|trial=%d|seed=%d|model=%s",
		k.Name, k.ParamDesc, k.OutLen(), k.Args(),
		system.Host.Name, system.HostFreqHz, system.Lanes, system.LinkCRC, system.AccVdd, system.AccFreqHz,
		watchdogCycles, offloadRetries, maxCycles, c.E2ERetries,
		class, rate, trial, seed, paper.ModelFingerprint())
}
