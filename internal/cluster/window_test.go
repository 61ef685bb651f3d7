package cluster_test

import (
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// TestWindowCoverage guards the optimistic-window tier against a silent
// fallback that would leave it dead code while every differential stays
// green: the paper-size hog at four threads — the slowest job of the
// campaign — must commit windows over at least 90% of the cycles in which
// two or more of its cores are awake.
func TestWindowCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size kernel")
	}
	k := kernels.HOG(128, 128)
	cfg := cluster.PULPConfig()
	prog, err := k.Build(cfg.Target, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args()}
	before := cluster.WindowStats()
	if _, err := cluster.RunJob(cfg, devrt.Accel, job, 2_000_000_000); err != nil {
		t.Fatal(err)
	}
	after := cluster.WindowStats()
	cycles := after.Cycles - before.Cycles
	multi := after.MultiCycles - before.MultiCycles
	t.Logf("hog pulp4: %d windows, %d of %d multi-core cycles windowed; cut by bank %d, word %d, event %d",
		after.Committed-before.Committed, cycles, multi,
		after.CutBank-before.CutBank, after.CutWord-before.CutWord, after.CutEvent-before.CutEvent)
	if multi == 0 || float64(cycles) < 0.9*float64(multi) {
		t.Errorf("windows cover %d of %d multi-core cycles, want >= 90%%", cycles, multi)
	}
}
