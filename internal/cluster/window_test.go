package cluster_test

import (
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// windowDelta runs fn and returns the scheduler counters it added to
// cluster.WindowStats.
func windowDelta(fn func()) cluster.WindowCounters {
	b := cluster.WindowStats()
	fn()
	a := cluster.WindowStats()
	return cluster.WindowCounters{
		Committed:   a.Committed - b.Committed,
		CutBank:     a.CutBank - b.CutBank,
		CutWord:     a.CutWord - b.CutWord,
		CutEvent:    a.CutEvent - b.CutEvent,
		Cycles:      a.Cycles - b.Cycles,
		MultiCycles: a.MultiCycles - b.MultiCycles,
		SoloCycles:  a.SoloCycles - b.SoloCycles,
		SimCycles:   a.SimCycles - b.SimCycles,
	}
}

// TestTierCoverage guards both fused modes of the scheduler against a
// silent fallback to stepping, which every differential would pass
// bit-identically, just slowly. It reads the scheduler's own counters,
// so its verdict does not depend on the machine's speed. Each input
// bounds one share:
//
//   - solo: one awake core throughout (matmul on the M4 host and at one
//     thread on pulp, the branchy family on the one-core shapes) must run
//     nearly all of its simulated cycles solo;
//   - windowed: the paper-size team kernels at four threads and the
//     branchy family on pulp-4c must commit windows over most of the
//     cycles in which two or more of their cores are awake.
func TestTierCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size kernels")
	}
	job := func(cfg cluster.Config, mode devrt.Mode, k *kernels.Instance, threads uint32) func(t *testing.T) {
		return func(t *testing.T) {
			prog, err := k.Build(cfg.Target, mode)
			if err != nil {
				t.Fatal(err)
			}
			j := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1, Threads: threads, Args: k.Args()}
			if _, err := cluster.RunJob(cfg, mode, j, 2_000_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	// branchy runs seeds 1-4 of the branchy family at the benchmarks' scale.
	branchy := func(cfg cluster.Config, opts kernels.BranchyOpts) func(t *testing.T) {
		opts.Scale = 8
		return func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				p := kernels.BranchyProgram(seed, opts)
				comp, err := kernels.Compiled(p, cfg.Target)
				if err != nil {
					t.Fatal(err)
				}
				cl := cluster.New(cfg)
				if err := cl.LoadCompiled(p, true, comp); err != nil {
					t.Fatal(err)
				}
				cl.Start(p.Entry)
				if res, err := cl.Run(10_000_000); err != nil || !res.EOC && !res.Halted {
					t.Fatalf("seed %d: %+v, %v", seed, res, err)
				}
			}
		}
	}
	pulp1 := cluster.PULPConfig()
	pulp1.Cores = 1
	m4 := cluster.MCUConfig(isa.CortexM4)
	pulp4 := cluster.PULPConfig()
	for _, tc := range []struct {
		name     string
		run      func(t *testing.T)
		solo     float64 // least share of simulated cycles run solo
		windowed float64 // least share of multi-core cycles committed windowed
	}{
		{"solo-matmul-m4", job(m4, devrt.Host, kernels.MatMulChar(64), 1), 0.99, 0},
		{"solo-matmul-pulp1t", job(pulp4, devrt.Accel, kernels.MatMulChar(64), 1), 0.98, 0},
		{"solo-branchy-pulp1c", branchy(pulp1, kernels.BranchyOpts{HWLoop: true}), 0.98, 0},
		{"solo-branchy-m4", branchy(m4, kernels.BranchyOpts{}), 0.98, 0},
		{"windowed-hog-pulp4", job(pulp4, devrt.Accel, kernels.HOG(128, 128), 4), 0, 0.90},
		{"windowed-matmul-pulp4", job(pulp4, devrt.Accel, kernels.MatMulChar(64), 4), 0, 0.85},
		{"windowed-cnn-pulp4", job(pulp4, devrt.Accel, kernels.CNN(false), 4), 0, 0.85},
		{"windowed-branchy-pulp4c", branchy(pulp4, kernels.BranchyOpts{HWLoop: true, Barriers: true}), 0, 0.85},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := windowDelta(func() { tc.run(t) })
			t.Logf("of %d simulated cycles %d solo, %d windowed, %d stepped or idle; %d windows cover %d of %d multi-core cycles; cut by bank %d, word %d, event %d",
				ws.SimCycles, ws.SoloCycles, ws.Cycles, ws.Stepped(), ws.Committed, ws.Cycles, ws.MultiCycles, ws.CutBank, ws.CutWord, ws.CutEvent)
			if tc.solo > 0 && (ws.SimCycles == 0 || float64(ws.SoloCycles) < tc.solo*float64(ws.SimCycles)) {
				t.Errorf("solo runs cover %d of %d simulated cycles, want >= %g%%", ws.SoloCycles, ws.SimCycles, 100*tc.solo)
			}
			if tc.windowed > 0 && (ws.MultiCycles == 0 || float64(ws.Cycles) < tc.windowed*float64(ws.MultiCycles)) {
				t.Errorf("windows cover %d of %d multi-core cycles, want >= %g%%", ws.Cycles, ws.MultiCycles, 100*tc.windowed)
			}
		})
	}
}
