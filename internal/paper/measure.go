// Package paper regenerates every table and figure of the DATE'16 paper's
// evaluation from the simulator: Table I (benchmark summary), Fig. 3
// (energy efficiency landscape on matmul), Fig. 4 (architectural and
// parallel speedups), Fig. 5a (speedup within a 10 mW envelope) and
// Fig. 5b (offload-cost amortization). Each generator returns structured
// rows (consumed by the benchmarks and the hetexp tool) and has a Render
// function producing the ASCII form recorded in EXPERIMENTS.md.
//
// Every simulation is expressed as an internal/sweep job: the generators
// are producers (they emit self-describing jobs with stable content keys)
// and consumers (they fold the in-order results into rows), so the whole
// evaluation parallelizes across a worker pool and memoizes into the run
// cache while staying byte-identical to a serial run.
package paper

import (
	"fmt"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/obs"
	"hetsim/internal/power"
	"hetsim/internal/sweep"
)

// configKey identifies a measurement configuration.
type configKey string

const (
	cfgPlain configKey = "plain" // single plain-RISC core (RISC-op counting)
	cfgM3    configKey = "m3"    // Cortex-M3 host profile
	cfgM4    configKey = "m4"    // Cortex-M4 host profile
	cfgPULP1 configKey = "pulp1" // OR10N cluster, team of 1
	cfgPULP2 configKey = "pulp2" // team of 2
	cfgPULP4 configKey = "pulp4" // team of 4
)

// measureMaxCycles bounds every suite simulation.
const measureMaxCycles = 4_000_000_000

// kernelMeasurement holds everything the figures need about one kernel.
type kernelMeasurement struct {
	K        *kernels.Instance
	Cycles   map[configKey]uint64
	RISCOps  uint64 // instructions retired on the plain-RISC core
	Activity power.Activity
	BinBytes int // accelerator binary size (Table I)
	InBytes  int
	OutBytes int

	// Attr is the per-core cycle attribution of the pulp-4t run; non-nil
	// only after MeasureObserved/MeasureObservedWith (the breakdown table).
	Attr *obs.Attribution
}

// Measurements caches the per-kernel simulation results shared by all
// generators so each kernel/config pair is simulated exactly once.
type Measurements struct {
	Suite []*kernels.Instance
	ByK   map[string]*kernelMeasurement
	seed  uint64
}

// defaultEngine backs the argument-free entry points: full parallelism,
// no cache.
func defaultEngine() *sweep.Engine { return sweep.New(sweep.Config{}) }

// measureRun is one (configuration, target, mode, team size) row of the
// per-kernel measurement matrix.
type measureRun struct {
	key     configKey
	tgt     isa.Target
	mode    devrt.Mode
	threads uint32
}

var measureRuns = []measureRun{
	{cfgPlain, isa.PULPPlain, devrt.Host, 1},
	{cfgM3, isa.CortexM3, devrt.Host, 1},
	{cfgM4, isa.CortexM4, devrt.Host, 1},
	{cfgPULP1, isa.PULPFull, devrt.Accel, 1},
	{cfgPULP2, isa.PULPFull, devrt.Accel, 2},
	{cfgPULP4, isa.PULPFull, devrt.Accel, 4},
}

// measureResult is the cacheable outcome of one (kernel, configuration)
// simulation. Retired is only meaningful for cfgPlain, Activity and
// BinBytes only for cfgPULP4; the other runs leave them zero.
type measureResult struct {
	Cycles   uint64
	Retired  uint64
	Activity power.Activity
	BinBytes int
	Attr     *obs.Attribution `json:",omitempty"` // cfgPULP4 under observation
}

// Measure runs the whole suite on every configuration with a default
// engine (one worker per CPU, no cache).
func Measure(suite []*kernels.Instance) (*Measurements, error) {
	return MeasureWith(defaultEngine(), suite)
}

// MeasureWith runs the whole suite on every configuration through the
// given sweep engine: every (kernel, configuration) pair is one job. With
// the paper suite this simulates ~100M core cycles across 60 mutually
// independent jobs.
func MeasureWith(eng *sweep.Engine, suite []*kernels.Instance) (*Measurements, error) {
	return measureWith(eng, suite, false)
}

// MeasureObserved is MeasureObservedWith on a default engine.
func MeasureObserved(suite []*kernels.Instance) (*Measurements, error) {
	return MeasureObservedWith(defaultEngine(), suite)
}

// MeasureObservedWith measures like MeasureWith but runs the pulp-4t
// configuration with cycle attribution attached (see internal/obs), so
// the Measurements can additionally produce the stall-breakdown table.
// Attribution is purely observational: every number shared with an
// unobserved measurement is bit-identical (the differential test pins
// this), and only the observed job's cache key carries the "|obs" marker.
func MeasureObservedWith(eng *sweep.Engine, suite []*kernels.Instance) (*Measurements, error) {
	return measureWith(eng, suite, true)
}

func measureWith(eng *sweep.Engine, suite []*kernels.Instance, observe bool) (*Measurements, error) {
	m, ins, err := newMeasurements(suite)
	if err != nil {
		return nil, err
	}
	var jobs []sweep.Job[measureResult]
	for i, k := range suite {
		for _, rc := range measureRuns {
			job, err := measureJob(k, ins[i], rc, observe)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
	}
	results, err := sweep.Run(eng, jobs)
	if err != nil {
		return nil, err
	}
	m.fold(results)
	return m, nil
}

// newMeasurements builds the empty measurement set for a suite (with the
// duplicate-name guard every folder depends on) and the per-kernel input
// buffers, indexed like the suite. It is shared by the local path
// (measureWith) and the remote one (MeasureRemoteBatch, wire.go) so both fold
// results identically.
func newMeasurements(suite []*kernels.Instance) (*Measurements, [][]byte, error) {
	m := &Measurements{Suite: suite, ByK: make(map[string]*kernelMeasurement), seed: 1}
	ins := make([][]byte, len(suite))
	for i, k := range suite {
		if _, dup := m.ByK[k.Name]; dup {
			return nil, nil, fmt.Errorf("paper: suite has two kernels named %q", k.Name)
		}
		ins[i] = k.Input(m.seed)
		m.ByK[k.Name] = &kernelMeasurement{
			K:        k,
			Cycles:   make(map[configKey]uint64),
			InBytes:  len(ins[i]),
			OutBytes: int(k.OutLen()),
		}
	}
	return m, ins, nil
}

// fold commits the results of the (suite × measureRuns) job matrix, in
// production order, into the measurement set.
func (m *Measurements) fold(results []measureResult) {
	i := 0
	for _, k := range m.Suite {
		km := m.ByK[k.Name]
		for _, rc := range measureRuns {
			r := results[i]
			i++
			km.Cycles[rc.key] = r.Cycles
			switch rc.key {
			case cfgPlain:
				km.RISCOps = r.Retired
			case cfgPULP4:
				km.Activity = r.Activity
				km.BinBytes = r.BinBytes
				km.Attr = r.Attr
			}
		}
	}
}

// measureJob builds the sweep job of one (kernel, configuration) pair.
// The program is emitted here, producer-side, because its bytes are part
// of the content key; the simulation itself runs worker-side.
func measureJob(k *kernels.Instance, in []byte, rc measureRun, observe bool) (sweep.Job[measureResult], error) {
	prog, err := k.Build(rc.tgt, rc.mode)
	if err != nil {
		return sweep.Job[measureResult]{}, err
	}
	var cfg cluster.Config
	if rc.mode == devrt.Accel {
		cfg = cluster.PULPConfig()
	} else {
		cfg = cluster.MCUConfig(rc.tgt)
	}
	// Only the run whose attribution is kept pays for observation; every
	// other job reuses the exact cache entries of an unobserved measure.
	cfg.Observe = observe && rc.key == cfgPULP4
	ph, err := progKey(prog)
	if err != nil {
		return sweep.Job[measureResult]{}, err
	}
	key := fmt.Sprintf("measure|%s|cfg=%s|mode=%d|threads=%d|%s|prog=%s|max=%d",
		kernelKey(k, in), rc.key, rc.mode, rc.threads, clusterKey(cfg), ph, uint64(measureMaxCycles))
	comp, err := kernels.Compiled(prog, cfg.Target)
	if err != nil {
		return sweep.Job[measureResult]{}, err
	}
	job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: rc.threads, Args: k.Args(), Compiled: comp}
	return sweep.Job[measureResult]{
		Key: key,
		Run: func() (measureResult, error) {
			res, err := cluster.RunJob(cfg, rc.mode, job, measureMaxCycles)
			if err != nil {
				return measureResult{}, fmt.Errorf("paper: measuring %s on %s: %w", k.Name, rc.key, err)
			}
			r := measureResult{Cycles: res.Cycles}
			switch rc.key {
			case cfgPlain:
				r.Retired = res.Stats.Retired()
			case cfgPULP4:
				r.Activity = power.ActivityOf(res.Stats)
				img, err := prog.Image()
				if err != nil {
					return measureResult{}, err
				}
				r.BinBytes = len(img)
				r.Attr = res.Attr
			}
			return r, nil
		},
	}, nil
}

// OpsPerCycle returns RISC operations per cycle for a configuration (the
// annotation of Fig. 5a).
func (km *kernelMeasurement) OpsPerCycle(key configKey) float64 {
	c := km.Cycles[key]
	if c == 0 {
		return 0
	}
	return float64(km.RISCOps) / float64(c)
}
