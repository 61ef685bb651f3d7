package paper

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// This file shares simulations and inputs among the jobs of one plan,
// local or served. The spec key (key.go) names what a point asks for and
// stays the cache key; the simulation key names what cluster.RunJob reads. Points that ask for
// different things can run the same simulation: an extension variant
// whose kernel never uses the dropped feature builds the full program,
// the extension study's full column is the measure matrix's pulp1 run,
// and the 8-bank point is matmul's pulp4 run. Each such point takes the
// result of the one simulation and derives its own payload from it, and
// every point of one kernel and seed reads the same input.

// simKey names what cluster.RunJob reads of one simulation: the program
// (the digest of its image plus the heap start loader.Plan reads), the
// job's input and contract, the mode, the cycle bound and the cluster,
// field by field. Of the target it takes the timing, Feat.Unaligned and
// Supports for each op the program uses, because predecode is the only
// reader of the features (cpu.Predecode) and the name reaches only error
// messages. Every field is spelled out: isa.Target is a fmt.Stringer that
// prints only its name, so formatting a Config with %v would drop the
// timing and alias targets. It fails only for a program that cannot be
// encoded.
func simKey(cfg cluster.Config, mode devrt.Mode, job loader.Job, maxCycles uint64) ([sha256.Size]byte, error) {
	prog, err := job.Prog.Digest()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "prog=%x|heap=%d|in=%d:", prog, job.Prog.Symbols["__heap"], len(job.In))
	h.Write(job.In)
	fmt.Fprintf(h, "|outlen=%d|iters=%d|threads=%d|args=%d,%d,%d,%d|stackcores=%d|mode=%d|max=%d",
		job.OutLen, job.Iters, job.Threads, job.Args[0], job.Args[1], job.Args[2], job.Args[3],
		job.StackCores, mode, maxCycles)
	fmt.Fprintf(h, "|cores=%d|tcdm=%d/%d|l2=%d|ic=%d/%d|l2lat=%d|ref=%t|noblocks=%t|obs=%t",
		cfg.Cores, cfg.TCDMSize, cfg.TCDMBanks, cfg.L2Size, cfg.ICacheSize, cfg.ICacheLine,
		cfg.L2Latency, cfg.ReferenceRun, cfg.NoBlocks, cfg.Observe)
	t := cfg.Target
	fmt.Fprintf(h, "|time=%d,%d,%d,%d,%d,%d,%d,%d|unaligned=%t|supports=",
		t.Time.LoadUse, t.Time.BranchTaken, t.Time.Jump, t.Time.Mul, t.Time.Mac, t.Time.Mac64,
		t.Time.Div, t.Time.WakeUp, t.Feat.Unaligned)
	var used [isa.NumOps]bool // every op is valid: the digest encoded it
	for _, in := range job.Prog.Text {
		used[in.Op] = true
	}
	for op, u := range used {
		if u {
			fmt.Fprintf(h, "%d:%t,", op, t.Supports(isa.Op(op)))
		}
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key, nil
}

// plan holds what the jobs of one campaign plan share, local or served:
// simulations by simulation key and inputs by kernel and seed. The first
// claimant of a key runs the simulation; concurrent and later claimants
// wait for it and take its result. A failure is not kept: each claimant
// that meets one simulates again, so every job reports its own error and
// a retry under sweep.Config.Retry runs afresh. A nil *plan shares
// nothing.
type plan struct {
	sims   sync.Map // [sha256.Size]byte -> *simEntry
	inputs sync.Map // inputKey -> func() []byte
}

// inputKey names one kernel input of a plan.
type inputKey struct {
	k    *kernels.Instance
	seed uint64
}

// input returns k's input at seed, generated once per plan.
func (pl *plan) input(k *kernels.Instance, seed uint64) []byte {
	if pl == nil {
		return k.Input(seed)
	}
	v, _ := pl.inputs.LoadOrStore(inputKey{k, seed}, sync.OnceValue(func() []byte { return k.Input(seed) }))
	return v.(func() []byte)()
}

// simEntry is one simulation key's slot: the once runs the simulation for
// every claimant of the slot.
type simEntry struct {
	once sync.Once
	res  *cluster.JobResult
	err  error
}

// errAbandoned is what a slot holds when its simulation panicked.
var errAbandoned = errors.New("paper: shared simulation panicked")

// simsRun and simsShared count, process-wide, the simulations plan jobs
// ran and the jobs that took another job's simulation instead.
var simsRun, simsShared atomic.Uint64

// SimStats reports how many simulations this process's plan jobs ran,
// local and served alike, and how many jobs took the result of another
// job of their plan that ran the identical simulation instead. For a
// campaign without failures the two add up to its simulated jobs
// (sweep.Stats.Executed).
func SimStats() (run, shared uint64) { return simsRun.Load(), simsShared.Load() }

// run returns the result of cluster.RunJob(cfg, mode, job, maxCycles). It
// compiles the program and simulates only if no claimant of the same
// simulation key has already succeeded or is still running it. An
// unencodable program simulates unshared.
func (pl *plan) run(cfg cluster.Config, mode devrt.Mode, job loader.Job, maxCycles uint64) (*cluster.JobResult, error) {
	simulate := func() (*cluster.JobResult, error) {
		simsRun.Add(1)
		comp, err := kernels.Compiled(job.Prog, cfg.Target)
		if err != nil {
			return nil, err
		}
		job.Compiled = comp
		return cluster.RunJob(cfg, mode, job, maxCycles)
	}
	if pl == nil {
		return simulate()
	}
	key, err := simKey(cfg, mode, job, maxCycles)
	if err != nil {
		return simulate()
	}
	return pl.do(key, simulate)
}

// do runs simulate at most once per key among successful claimants.
func (pl *plan) do(key [sha256.Size]byte, simulate func() (*cluster.JobResult, error)) (*cluster.JobResult, error) {
	for {
		v, _ := pl.sims.LoadOrStore(key, new(simEntry))
		e := v.(*simEntry)
		ran := false
		e.once.Do(func() {
			ran = true
			e.err = errAbandoned // kept only if simulate panics
			e.res, e.err = simulate()
		})
		if e.err == nil {
			if !ran {
				simsShared.Add(1)
			}
			return e.res, nil
		}
		pl.sims.CompareAndDelete(key, e)
		if ran {
			return nil, e.err
		}
	}
}
