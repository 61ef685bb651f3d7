package cluster_test

import (
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// TestTierCoverage guards both fused modes of the scheduler against a
// silent fallback to stepping, which every differential would pass
// bit-identically, just slowly:
//
//   - windowed: the paper-size hog at four threads — the slowest job of
//     the campaign — must commit windows over at least 90% of the cycles
//     in which two or more of its cores are awake;
//   - solo: the paper-size matmul on the M4 host, one core throughout,
//     must run at least 99% of its simulated cycles solo.
func TestTierCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size kernels")
	}
	run := func(t *testing.T, cfg cluster.Config, mode devrt.Mode, k *kernels.Instance, threads uint32) cluster.WindowCounters {
		t.Helper()
		prog, err := k.Build(cfg.Target, mode)
		if err != nil {
			t.Fatal(err)
		}
		job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1, Threads: threads, Args: k.Args()}
		before := cluster.WindowStats()
		if _, err := cluster.RunJob(cfg, mode, job, 2_000_000_000); err != nil {
			t.Fatal(err)
		}
		after := cluster.WindowStats()
		return cluster.WindowCounters{
			Committed:   after.Committed - before.Committed,
			CutBank:     after.CutBank - before.CutBank,
			CutWord:     after.CutWord - before.CutWord,
			CutEvent:    after.CutEvent - before.CutEvent,
			Cycles:      after.Cycles - before.Cycles,
			MultiCycles: after.MultiCycles - before.MultiCycles,
			SoloCycles:  after.SoloCycles - before.SoloCycles,
			SimCycles:   after.SimCycles - before.SimCycles,
		}
	}

	t.Run("windowed-hog-pulp4", func(t *testing.T) {
		ws := run(t, cluster.PULPConfig(), devrt.Accel, kernels.HOG(128, 128), 4)
		t.Logf("%d windows, %d of %d multi-core cycles windowed; cut by bank %d, word %d, event %d",
			ws.Committed, ws.Cycles, ws.MultiCycles, ws.CutBank, ws.CutWord, ws.CutEvent)
		if ws.MultiCycles == 0 || float64(ws.Cycles) < 0.9*float64(ws.MultiCycles) {
			t.Errorf("windows cover %d of %d multi-core cycles, want >= 90%%", ws.Cycles, ws.MultiCycles)
		}
	})
	t.Run("solo-matmul-m4", func(t *testing.T) {
		ws := run(t, cluster.MCUConfig(isa.CortexM4), devrt.Host, kernels.MatMulChar(64), 1)
		t.Logf("%d of %d simulated cycles solo, %d stepped", ws.SoloCycles, ws.SimCycles, ws.Stepped())
		if ws.SimCycles == 0 || float64(ws.SoloCycles) < 0.99*float64(ws.SimCycles) {
			t.Errorf("solo runs cover %d of %d simulated cycles, want >= 99%%", ws.SoloCycles, ws.SimCycles)
		}
	})
}
