package cluster_test

import (
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// TestSteadyRunsAllocateNothing is the ordinary-suite twin of the perf
// gates' allocs/op rows: once a cluster is built, loaded and has run once
// (which allocates the window log), a Start+Run pass allocates nothing —
// on the four-core team path, fused and stepped, and on the branchy
// family's one-core shapes, where every span is a solo grant. Clusters
// are staged at the small kernel sizes, so the check runs in the tier-1
// suite; testing.AllocsPerRun truncates the mean, so a per-run allocation
// fails it while a one-off (a GC-time runtime allocation) does not.
func TestSteadyRunsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	type staged struct {
		cl    *cluster.Cluster
		entry uint32
	}
	team := func(t *testing.T, stepped bool) []staged {
		var runs []staged
		for _, k := range []*kernels.Instance{kernels.MatMulChar(16), kernels.CNNSized(false, 16, 2, 4), kernels.HOG(32, 32)} {
			cfg := cluster.PULPConfig()
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
			cl := cluster.New(cfg)
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
	branchy := func(t *testing.T, cfg cluster.Config, hwloop bool) []staged {
		var runs []staged
		for seed := int64(1); seed <= 4; seed++ {
			p := kernels.BranchyProgram(seed, kernels.BranchyOpts{HWLoop: hwloop})
			cl := cluster.New(cfg)
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
	pulp1 := cluster.PULPConfig()
	pulp1.Cores = 1
	for _, tc := range []struct {
		name  string
		stage func(t *testing.T) []staged
	}{
		{"team/super/pulp-4c", func(t *testing.T) []staged { return team(t, false) }},
		{"team/stepped/pulp-4c", func(t *testing.T) []staged { return team(t, true) }},
		{"branchy/super/pulp-1c", func(t *testing.T) []staged { return branchy(t, pulp1, true) }},
		{"branchy/super/m4", func(t *testing.T) []staged { return branchy(t, cluster.MCUConfig(isa.CortexM4), false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := tc.stage(t)
			pass := func() {
				for _, rn := range runs {
					rn.cl.Start(rn.entry)
					if res, err := rn.cl.Run(100_000_000); err != nil || !res.EOC && !res.Halted {
						t.Fatalf("run: %+v, %v", res, err)
					}
				}
			}
			pass() // the first run allocates the window log
			if n := testing.AllocsPerRun(5, pass); n != 0 {
				t.Errorf("a Start+Run pass allocates %v times, want 0", n)
			}
		})
	}
}
