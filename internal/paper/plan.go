package paper

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/power"
	"hetsim/internal/sweep"
)

// This file holds the campaign's one job builder: every simulation is a
// JobSpec, and Point.job is the only place that turns one into a sweep
// job. Each simulating experiment is a plan (its points) plus a fold (raw
// results to rows); a Runner executes a plan, locally as one sweep.Run or
// remotely as one /v1/batch submission.

// Study selectors of JobSpec.Study; "" selects the measure matrix.
const (
	StudyExt     = "ext"     // one core, PULPFull minus the feature Variant names
	StudyBanks   = "banks"   // team of 4 on the 4-core cluster with Banks TCDM banks
	StudyScaling = "scaling" // team of Threads on the 8-core, 16-bank, 8 KiB I$ cluster
)

// bankCounts and teamSizes are the axes of the bank sweep and the scaling
// study; a JobSpec may name no other value.
var (
	bankCounts = []int{1, 2, 4, 8, 16}
	teamSizes  = []int{1, 2, 4, 6, 8}
)

// measureSeed feeds the kernels' input generators in every local plan.
const measureSeed = 1

// Point is one simulation of a campaign plan: its wire spec and the kernel
// instance it runs, so a local runner never resolves a name.
type Point struct {
	Spec JobSpec
	k    *kernels.Instance
}

// Runner executes a plan and returns the raw results indexed like pts.
type Runner func(pts []Point) ([]json.RawMessage, error)

// LocalRunner runs a plan as one sweep.Run on eng. The plan's jobs share
// one plan (sim.go), so points that run an identical simulation run it
// once per call and each kernel's input is generated once.
func LocalRunner(eng *sweep.Engine) Runner {
	return func(pts []Point) ([]json.RawMessage, error) {
		pl := new(plan)
		jobs := make([]sweep.Job[json.RawMessage], len(pts))
		for i, p := range pts {
			job, err := p.job(nil, pl)
			if err != nil {
				return nil, err
			}
			jobs[i] = job
		}
		return sweep.Run(eng, jobs)
	}
}

// RemoteRunner sends a plan's specs as one batch submission through run
// and checks that every point was answered. small must match the suite:
// it tells the server which registry resolves the kernel names.
func RemoteRunner(ctx context.Context, run BatchRunner, small bool) Runner {
	return func(pts []Point) ([]json.RawMessage, error) {
		specs := make([]JobSpec, len(pts))
		for i, p := range pts {
			specs[i] = p.Spec
			specs[i].Small = small
		}
		raws, err := run(ctx, specs)
		if err == nil && len(raws) != len(specs) {
			err = fmt.Errorf("paper: batch runner returned %d results for %d specs", len(raws), len(specs))
		}
		return raws, err
	}
}

// runFold runs one plan and folds its results.
func runFold[T any](run Runner, pts []Point, fold func([]Point, []json.RawMessage) (T, error)) (T, error) {
	raws, err := run(pts)
	if err != nil {
		var zero T
		return zero, err
	}
	return fold(pts, raws)
}

// decode unmarshals the raw results of pts.
func decode[T any](pts []Point, raws []json.RawMessage) ([]T, error) {
	out := make([]T, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("paper: point %+v: undecodable result: %w", pts[i].Spec, err)
		}
	}
	return out, nil
}

// simulation is what a spec runs: its study's cache-key prefix, the
// runtime mode, the cluster (whose target the program is built for) and
// the team size.
type simulation struct {
	prefix  string
	mode    devrt.Mode
	cfg     cluster.Config
	threads uint32
}

// resolve checks a spec's configuration or study parameter against the
// lists the plans iterate — a measure point names a configuration and no
// study parameter, a study point exactly its own parameter — and returns
// what the spec simulates.
func (s *JobSpec) resolve() (simulation, error) {
	bad := func() (simulation, error) { return simulation{}, fmt.Errorf("paper: job spec: bad point %+v", *s) }
	if s.Study != "" && (s.Config != "" || s.Observe) {
		return bad()
	}
	cfg := cluster.PULPConfig()
	switch s.Study {
	case "":
		i := slices.IndexFunc(measureRuns, func(rc measureRun) bool { return string(rc.key) == s.Config })
		if i < 0 || s.Variant != "" || s.Banks != 0 || s.Threads != 0 {
			return bad()
		}
		rc := measureRuns[i]
		if rc.mode == devrt.Host {
			cfg = cluster.MCUConfig(rc.tgt)
		}
		// Only the run whose attribution is kept pays for observation;
		// every other job reuses the exact cache entries of an unobserved
		// measure.
		cfg.Observe = s.Observe && rc.key == cfgPULP4
		return simulation{"measure", rc.mode, cfg, rc.threads}, nil
	case StudyExt:
		i := slices.IndexFunc(ExtVariants, func(v ExtVariant) bool { return v.Name == s.Variant })
		if i < 0 && s.Variant != "" || s.Banks != 0 || s.Threads != 0 {
			return bad()
		}
		if i >= 0 { // "" is the full build
			// Mod takes a pointer through a func value, which would move
			// cfg to the heap on every resolve; only this copy escapes.
			feat := cfg.Target.Feat
			ExtVariants[i].Mod(&feat)
			cfg.Target.Name += ExtVariants[i].Name
			cfg.Target.Feat = feat
		}
		return simulation{"extablate", devrt.Accel, cfg, 1}, nil
	case StudyBanks:
		if !slices.Contains(bankCounts, s.Banks) || s.Variant != "" || s.Threads != 0 {
			return bad()
		}
		cfg.TCDMBanks = s.Banks
		return simulation{"banksweep", devrt.Accel, cfg, 4}, nil
	case StudyScaling:
		if !slices.Contains(teamSizes, s.Threads) || s.Variant != "" || s.Banks != 0 {
			return bad()
		}
		cfg.Cores, cfg.TCDMBanks, cfg.ICacheSize = 8, 16, 8*1024
		return simulation{"scaling", devrt.Accel, cfg, uint32(s.Threads)}, nil
	}
	return bad()
}

// payload is the cached result of a spec's simulation: a measureResult for
// a measure point, the cycle count for the extension and scaling studies
// and a BankSweepPoint for the bank sweep.
func (s *JobSpec) payload(res *cluster.JobResult, prog *asm.Program) any {
	switch s.Study {
	case StudyExt, StudyScaling:
		return res.Cycles
	case StudyBanks:
		tot := res.Stats.TCDMAccess + res.Stats.TCDMConf
		rate := 0.0
		if tot > 0 {
			rate = float64(res.Stats.TCDMConf) / float64(tot)
		}
		return BankSweepPoint{Banks: s.Banks, Cycles: res.Cycles, ConflictRate: rate}
	}
	r := measureResult{Cycles: res.Cycles}
	switch configKey(s.Config) {
	case cfgPlain:
		r.Retired = res.Stats.Retired()
	case cfgPULP4:
		r.Activity = power.ActivityOf(res.Stats)
		r.BinBytes = prog.Size()
		r.Attr = res.Attr
	}
	return r
}

// job builds the sweep job of a point whose spec resolves to sim,
// resolving it if sim is nil. The key is the spec itself plus the model
// fingerprint (specKey), so forming it builds nothing: the program is
// emitted and the input generated in Run, which a cache hit never calls.
// Run takes its input from pl and simulates through it, which compiles
// and simulates only a simulation no other job of pl has run.
func (p Point) job(sim *simulation, pl *plan) (sweep.Job[json.RawMessage], error) {
	if sim == nil {
		s, err := p.Spec.resolve()
		if err != nil {
			return sweep.Job[json.RawMessage]{}, err
		}
		sim = &s
	}
	r := &pointRun{p, *sim, pl}
	return sweep.Job[json.RawMessage]{Key: specKey(sim.prefix, p.k, p.Spec, sim.cfg.Observe), Run: r.run}, nil
}

// pointRun is a point's job as it runs: the point, what its spec
// simulates and the plan it shares, in one allocation.
type pointRun struct {
	p    Point
	sim  simulation
	plan *plan
}

func (r *pointRun) run() (json.RawMessage, error) {
	p, sim := &r.p, &r.sim
	prog, err := p.k.Build(sim.cfg.Target, sim.mode)
	if err != nil {
		return nil, err
	}
	job := loader.Job{Prog: prog, In: r.plan.input(p.k, p.Spec.Seed), OutLen: p.k.OutLen(), Iters: 1, Threads: sim.threads, Args: p.k.Args()}
	res, err := r.plan.run(sim.cfg, sim.mode, job, measureMaxCycles)
	if err != nil {
		return nil, fmt.Errorf("paper: simulating %+v: %w", p.Spec, err)
	}
	return json.Marshal(p.Spec.payload(res, prog))
}
