package cluster

import (
	"testing"

	"hetsim/internal/devrt"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// staged is one cluster built, loaded and ready for Start+Run passes.
type staged struct {
	cl    *Cluster
	entry uint32
}

// stageTeam stages matmul, cnn and hog at their small sizes with four
// threads on the four-core PULP cluster, fused or stepped.
func stageTeam(t *testing.T, stepped bool) []staged {
	t.Helper()
	var runs []staged
	for _, k := range []*kernels.Instance{kernels.MatMulChar(16), kernels.CNNSized(false, 16, 2, 4), kernels.HOG(32, 32)} {
		cfg := PULPConfig()
		cfg.NoBlocks = stepped
		prog, err := k.Build(cfg.Target, devrt.Accel)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := kernels.Compiled(prog, cfg.Target)
		if err != nil {
			t.Fatal(err)
		}
		job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1,
			Threads: 4, Args: k.Args(), StackCores: cfg.Cores}
		l, err := loader.Plan(job, cfg.TCDMSize, cfg.L2Size)
		if err != nil {
			t.Fatal(err)
		}
		cl := New(cfg)
		if err := cl.LoadCompiled(prog, false, comp); err != nil {
			t.Fatal(err)
		}
		if err := cl.L2.WriteBytes(hw.DescBase, loader.Descriptor(job, l)); err != nil {
			t.Fatal(err)
		}
		if err := cl.L2.WriteBytes(l.InLMA, job.In); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, staged{cl, prog.Entry})
	}
	return runs
}

// stageBranchy stages four seeds of the branchy family on cfg.
func stageBranchy(t *testing.T, cfg Config, opts kernels.BranchyOpts) []staged {
	t.Helper()
	var runs []staged
	for seed := int64(1); seed <= 4; seed++ {
		p := kernels.BranchyProgram(seed, opts)
		cl := New(cfg)
		comp, err := kernels.Compiled(p, cfg.Target)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.LoadCompiled(p, true, comp); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, staged{cl, p.Entry})
	}
	return runs
}

// steadyShape is one named set of staged clusters.
type steadyShape struct {
	name  string
	stage func(t *testing.T) []staged
}

// steadyShapes are the staged shapes of the steady-state checks: the
// four-core team path and the branchy family on every cluster shape of
// the block differentials, each fused ("super") and stepped.
var steadyShapes = func() []steadyShape {
	pulp1 := PULPConfig()
	pulp1.Cores = 1
	branchy := []struct {
		name string
		cfg  Config
		opts kernels.BranchyOpts
	}{
		{"pulp-4c", PULPConfig(), kernels.BranchyOpts{HWLoop: true, Barriers: true}},
		{"pulp-1c", pulp1, kernels.BranchyOpts{HWLoop: true}},
		{"m4", MCUConfig(isa.CortexM4), kernels.BranchyOpts{}},
	}
	var shapes []steadyShape
	for _, tier := range []struct {
		name    string
		stepped bool
	}{{"super", false}, {"stepped", true}} {
		shapes = append(shapes, steadyShape{"team/" + tier.name + "/pulp-4c",
			func(t *testing.T) []staged { return stageTeam(t, tier.stepped) }})
		for _, sh := range branchy {
			cfg := sh.cfg
			cfg.NoBlocks = tier.stepped
			shapes = append(shapes, steadyShape{"branchy/" + tier.name + "/" + sh.name,
				func(t *testing.T) []staged { return stageBranchy(t, cfg, sh.opts) }})
		}
	}
	return shapes
}()

// runPass runs every staged cluster once from its entry to completion.
func runPass(t *testing.T, runs []staged) {
	for _, rn := range runs {
		rn.cl.Start(rn.entry)
		if res, err := rn.cl.Run(100_000_000); err != nil || !res.EOC && !res.Halted {
			t.Fatalf("run: %+v, %v", res, err)
		}
	}
}

// TestSteadyRunsAllocateNothing checks the allocation-free steady state:
// once a cluster is built, loaded and has run once (which allocates the
// window log), a Start+Run pass allocates nothing, on every steady shape.
// Clusters are staged at the small kernel sizes, so the check runs in the
// tier-1 suite; testing.AllocsPerRun truncates the mean, so a per-run
// allocation fails it while a one-off (a GC-time runtime allocation) does
// not.
func TestSteadyRunsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, sh := range steadyShapes {
		t.Run(sh.name, func(t *testing.T) {
			runs := sh.stage(t)
			runPass(t, runs) // the first run allocates the window log
			if n := testing.AllocsPerRun(5, func() { runPass(t, runs) }); n != 0 {
				t.Errorf("a Start+Run pass allocates %v times, want 0", n)
			}
		})
	}
}

// TestDetachedRunsArmNoObs proves by structure that detached
// observability costs nothing (DESIGN.md §10): every call the hot loops
// make into internal/obs is a method on a core's Obs, the cluster's
// observer or a DMA, event-unit or I$ span recorder, each guarded by a
// nil check. After a detached Start+Run pass on every steady shape all of
// them are still nil, so the run made no such call.
func TestDetachedRunsArmNoObs(t *testing.T) {
	for _, sh := range steadyShapes {
		t.Run(sh.name, func(t *testing.T) {
			runs := sh.stage(t)
			runPass(t, runs)
			for _, rn := range runs {
				cl := rn.cl
				if cl.obs != nil || cl.DMA.TL != nil || cl.Evt.TL != nil || cl.IC != nil && cl.IC.TL != nil {
					t.Errorf("detached cluster has an observer or span recorder armed")
				}
				for _, c := range cl.Cores {
					if c.Obs != nil {
						t.Errorf("core %d has its cycle attribution armed", c.ID)
					}
				}
			}
		})
	}
}
