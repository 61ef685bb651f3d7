// Package paper regenerates every table and figure of the DATE'16 paper's
// evaluation from the simulator: Table I (benchmark summary), Fig. 3
// (energy efficiency landscape on matmul), Fig. 4 (architectural and
// parallel speedups), Fig. 5a (speedup within a 10 mW envelope) and
// Fig. 5b (offload-cost amortization). Each generator returns structured
// rows (consumed by the benchmarks and the hetexp tool) and has a Render
// function producing the ASCII form recorded in EXPERIMENTS.md.
//
// Every simulation is a JobSpec that one builder (plan.go) turns into an
// internal/sweep job with a stable cache key; each simulating generator
// is a plan (its points) and a fold (the in-order results to rows), so the
// whole evaluation runs as one job set — on a worker pool and the run
// cache, or as one hetsimd batch — byte-identical to a serial run.
package paper

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"hetsim/internal/core"
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
	// only for an observed measurement (the breakdown table).
	Attr *obs.Attribution
}

// Measurements caches the per-kernel simulation results shared by all
// generators so each kernel/config pair is simulated exactly once.
type Measurements struct {
	Suite []*kernels.Instance
	ByK   map[string]*kernelMeasurement

	// jobs holds each composed kernel's offload job (offloadJob), made on
	// first use and shared by every composition of this measurement set.
	jobs sync.Map // kernel name -> func() (loader.Job, error)
}

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

// MeasureWith runs the whole suite on every configuration through the
// given sweep engine: every (kernel, configuration) pair is one job. With
// the paper suite this simulates ~100M core cycles across 60 mutually
// independent jobs.
func MeasureWith(eng *sweep.Engine, suite []*kernels.Instance) (*Measurements, error) {
	return measure(LocalRunner(eng), suite, false)
}

// measure runs the measure matrix of suite through run. With observe the
// pulp-4t configuration runs with cycle attribution attached (see
// internal/obs), so the Measurements can additionally produce the
// stall-breakdown table. Attribution is purely observational: every
// number shared with an unobserved measurement is bit-identical, and only
// the observed job's cache key carries the "|obs" marker.
func measure(run Runner, suite []*kernels.Instance, observe bool) (*Measurements, error) {
	pts, err := measurePoints(suite, observe)
	if err != nil {
		return nil, err
	}
	return runFold(run, pts, foldMeasure)
}

// measureSpecs lists the measure matrix row of one kernel, in matrix
// order.
func measureSpecs(k *kernels.Instance, observe bool, seed uint64) []JobSpec {
	specs := make([]JobSpec, len(measureRuns))
	for i, rc := range measureRuns {
		specs[i] = JobSpec{Kernel: k.Name, Seed: seed, Config: string(rc.key), Observe: observe}
	}
	return specs
}

// measurePoints plans the (suite × measureRuns) matrix, kernel-major. It
// rejects a suite with two kernels of one name, which every fold keyed
// by name depends on.
func measurePoints(suite []*kernels.Instance, observe bool) ([]Point, error) {
	var pts []Point
	for i, k := range suite {
		if slices.ContainsFunc(suite[:i], func(o *kernels.Instance) bool { return o.Name == k.Name }) {
			return nil, fmt.Errorf("paper: suite has two kernels named %q", k.Name)
		}
		for _, s := range measureSpecs(k, observe, measureSeed) {
			pts = append(pts, Point{s, k})
		}
	}
	return pts, nil
}

// foldMeasure commits the results of a measurePoints plan, in plan order,
// into a measurement set.
func foldMeasure(pts []Point, raws []json.RawMessage) (*Measurements, error) {
	results, err := decode[measureResult](pts, raws)
	if err != nil {
		return nil, err
	}
	m := &Measurements{ByK: make(map[string]*kernelMeasurement)}
	for i, p := range pts {
		km := m.ByK[p.k.Name]
		if km == nil {
			km = &kernelMeasurement{
				K:        p.k,
				Cycles:   make(map[configKey]uint64),
				InBytes:  int(p.k.InLen()),
				OutBytes: int(p.k.OutLen()),
			}
			m.ByK[p.k.Name] = km
			m.Suite = append(m.Suite, p.k)
		}
		r := results[i]
		key := configKey(p.Spec.Config)
		km.Cycles[key] = r.Cycles
		switch key {
		case cfgPlain:
			km.RISCOps = r.Retired
		case cfgPULP4:
			km.Activity = r.Activity
			km.BinBytes = r.BinBytes
			km.Attr = r.Attr
		}
	}
	return m, nil
}

// offloadCompute pairs the job a direct offload of one measured kernel
// moves over the link with that kernel's measured pulp-4t compute.
type offloadCompute struct {
	job     loader.Job
	compute core.Compute
}

// offload returns k's offload job and its measured pulp-4t compute: the
// cycle artifact Fig. 5b and the link and sensor ablations compose from.
// The pulp-4t measure job runs the same program, input, cluster shape and
// team of 4 as a direct offload's compute step (the artifact validity
// test pins this), so its result stands in for the simulation. The job
// and its input are made once per measurement set.
func (m *Measurements) offload(k *kernels.Instance) (offloadCompute, error) {
	km, ok := m.ByK[k.Name]
	if !ok {
		return offloadCompute{}, fmt.Errorf("paper: kernel %q not measured", k.Name)
	}
	f, _ := m.jobs.LoadOrStore(k.Name, sync.OnceValues(func() (loader.Job, error) { return offloadJob(km.K) }))
	job, err := f.(func() (loader.Job, error))()
	if err != nil {
		return offloadCompute{}, err
	}
	if k != km.K && kernelKey(k, k.Input(measureSeed)) != kernelKey(km.K, job.In) {
		return offloadCompute{}, fmt.Errorf("paper: kernel %q differs from the measured instance", k.Name)
	}
	return offloadCompute{
		job:     job,
		compute: core.Compute{Cycles: km.Cycles[cfgPULP4], Activity: km.Activity},
	}, nil
}

// offloadJob is the job a direct offload of k moves over the link: its
// pulp-4t program and its input at measureSeed.
func offloadJob(k *kernels.Instance) (loader.Job, error) {
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		return loader.Job{}, err
	}
	return loader.Job{Prog: prog, In: k.Input(measureSeed), OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args()}, nil
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
