// Benchmarks that regenerate every table and figure of the paper's
// evaluation section, one per artifact:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its headline numbers as custom metrics (the same
// values recorded in EXPERIMENTS.md), so a regression in the reproduced
// results is visible directly in benchmark output. The full-size kernel
// suite is measured once and shared across benchmarks.
package hetsim_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"hetsim"
	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

var (
	benchOnce sync.Once
	benchM    *paper.Measurements
	benchErr  error
)

// measurements simulates the full paper suite once per benchmark run
// (every kernel on all six core configurations, ~60M simulated cycles).
func measurements(b *testing.B) *paper.Measurements {
	b.Helper()
	benchOnce.Do(func() {
		benchM, benchErr = paper.Measure(kernels.PaperSuite())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchM
}

// BenchmarkTable1 regenerates the benchmark-summary table.
func BenchmarkTable1(b *testing.B) {
	m := measurements(b)
	b.ResetTimer()
	var rows []paper.Table1Row
	for i := 0; i < b.N; i++ {
		rows = m.Table1()
		paper.RenderTable1(io.Discard, rows)
	}
	for _, r := range rows {
		if r.Name == "matmul" {
			b.ReportMetric(float64(r.RISCOps)/1e6, "matmul-Mops")
			b.ReportMetric(float64(r.Binary), "matmul-binary-B")
		}
		if r.Name == "hog" {
			b.ReportMetric(float64(r.RISCOps)/1e6, "hog-Mops")
		}
	}
}

// BenchmarkFigure3 regenerates the energy-efficiency landscape.
func BenchmarkFigure3(b *testing.B) {
	m := measurements(b)
	b.ResetTimer()
	var pts []paper.Fig3Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = m.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		paper.RenderFigure3(io.Discard, pts)
	}
	var bestPULP, bestMCU float64
	for _, p := range pts {
		if p.Kind == "pulp" && p.GOPSperW > bestPULP {
			bestPULP = p.GOPSperW
		}
		if p.Kind == "mcu" && p.GOPSperW > bestMCU {
			bestMCU = p.GOPSperW
		}
	}
	b.ReportMetric(bestPULP, "peak-PULP-GOPS/W")
	b.ReportMetric(bestMCU, "peak-MCU-GOPS/W")
	b.ReportMetric(bestPULP/bestMCU, "efficiency-gap-x")
}

// BenchmarkFigure4Arch regenerates the architectural-speedup panel.
func BenchmarkFigure4Arch(b *testing.B) {
	m := measurements(b)
	b.ResetTimer()
	var rows []paper.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = m.Figure4()
		paper.RenderFigure4(io.Discard, rows)
	}
	for _, r := range rows {
		switch r.Name {
		case "matmul":
			b.ReportMetric(r.ArchVsM4, "matmul-arch-x")
		case "matmul (fixed)":
			b.ReportMetric(r.ArchVsM4, "fixed-arch-x")
		case "hog":
			b.ReportMetric(r.ArchVsM4, "hog-arch-x")
		}
	}
}

// BenchmarkFigure4Parallel regenerates the parallel-speedup panel.
func BenchmarkFigure4Parallel(b *testing.B) {
	m := measurements(b)
	b.ResetTimer()
	var rows []paper.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = m.Figure4()
	}
	var minPar4, maxPar4 = 4.0, 0.0
	for _, r := range rows {
		if r.Par4 < minPar4 {
			minPar4 = r.Par4
		}
		if r.Par4 > maxPar4 {
			maxPar4 = r.Par4
		}
	}
	b.ReportMetric(minPar4, "min-par4-x")
	b.ReportMetric(maxPar4, "max-par4-x")
	b.ReportMetric(paper.OMPOverhead(rows)*100, "omp-overhead-%")
}

// BenchmarkFigure5a regenerates the 10 mW envelope sweep.
func BenchmarkFigure5a(b *testing.B) {
	m := measurements(b)
	b.ResetTimer()
	var rows []paper.Fig5aRow
	for i := 0; i < b.N; i++ {
		rows = m.Figure5a()
		paper.RenderFigure5a(io.Discard, rows)
	}
	for _, r := range rows {
		best := r.Entries[len(r.Entries)-1].Speedup
		switch r.Name {
		case "strassen":
			b.ReportMetric(best, "strassen-max-x")
		case "hog":
			b.ReportMetric(best, "hog-max-x")
		case "matmul (fixed)":
			b.ReportMetric(best, "fixed-max-x")
		}
	}
}

// BenchmarkFigure5b regenerates the offload-amortization curves on matmul
// (10 iteration counts x 5 host frequencies, with and without double
// buffering). Every point is composed from the measured pulp-4t compute —
// link phases charged, timeline and energy composed — so the loop times
// the composition, not a cluster simulation.
func BenchmarkFigure5b(b *testing.B) {
	m := measurements(b)
	k, err := hetsim.KernelByName("matmul")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var series []paper.Fig5bSeries
	for i := 0; i < b.N; i++ {
		series, err = paper.Figure5b(k, m)
		if err != nil {
			b.Fatal(err)
		}
		paper.RenderFigure5b(io.Discard, k.Name, series)
	}
	for _, s := range series {
		last := s.EffDB[len(s.EffDB)-1]
		switch s.MCUFreqHz {
		case 26e6:
			b.ReportMetric(last, "eff-26MHz-512it")
		case 2e6:
			b.ReportMetric(last, "eff-2MHz-512it")
		}
	}
}

// runSmallSweep drives `hetexp -small -exp all` through one sweep engine:
// the whole reduced evaluation, every simulation as a job, rendered
// through the same paper.RenderCampaign call.
func runSmallSweep(b *testing.B, eng *sweep.Engine) {
	b.Helper()
	m, err := paper.MeasureWith(eng, kernels.SmallSuite())
	if err != nil {
		b.Fatal(err)
	}
	if err := paper.RenderCampaign(io.Discard, eng, m, paper.CampaignOptions{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepWallclock times the reduced full evaluation end to end at
// 1 worker, at 4 workers, and on a warm run cache — the wall-clock record
// behind BENCH_PR3.json (`make sweep-bench`). Run with -benchtime=1x: each
// iteration performs four full sweeps.
func BenchmarkSweepWallclock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runSmallSweep(b, sweep.New(sweep.Config{Workers: 1}))
		j1 := time.Since(t0).Seconds()

		t0 = time.Now()
		runSmallSweep(b, sweep.New(sweep.Config{Workers: 4}))
		j4 := time.Since(t0).Seconds()

		dir := b.TempDir()
		cold, err := sweep.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		runSmallSweep(b, sweep.New(sweep.Config{Workers: 4, Cache: cold}))

		warmCache, err := sweep.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		warmEng := sweep.New(sweep.Config{Workers: 4, Cache: warmCache})
		t0 = time.Now()
		runSmallSweep(b, warmEng)
		warm := time.Since(t0).Seconds()
		if st := warmEng.Stats(); st.Executed != 0 {
			b.Fatalf("warm sweep simulated %d jobs, want 0", st.Executed)
		}

		b.ReportMetric(j1, "sweep-j1-s")
		b.ReportMetric(j4, "sweep-j4-s")
		b.ReportMetric(warm, "sweep-warm-s")
		b.ReportMetric(j1/j4, "sweep-par-x")
		b.ReportMetric(warm/j1*100, "sweep-warm-%")
	}
}

// BenchmarkSimulatorThroughput measures the raw simulator speed (simulated
// cycles per second) on the 4-core matmul — the cost of the methodology.
func BenchmarkSimulatorThroughput(b *testing.B) {
	k := hetsim.MatMulChar(64)
	prog, err := k.Build(hetsim.PULPFull, hetsim.Accel)
	if err != nil {
		b.Fatal(err)
	}
	in := k.Input(1)
	sys, err := hetsim.NewSystem(hetsim.SystemConfig{
		Host: hetsim.STM32L476, HostFreqHz: 16e6, Lanes: 4,
		AccVdd: 0.8, AccFreqHz: 200e6,
	})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := sys.Offload(hetsim.Job{
			Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args(),
		}, hetsim.OffloadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.ComputeCycles
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs/1e6, "Msimcycles/s")
	}
}

// BenchmarkSimulatorThroughputBlocks measures fused execution (DESIGN.md
// §12–13) against pure stepped execution on the reference kernel mix:
// matmul-64 on the 4-thread and 1-thread PULP accelerator configs and on
// the Cortex-M4 host. The mix metric is aggregate simulated cycles per
// second (total cycles / total wall time), so solo-heavy configurations
// (1t, host) and the multi-core config weigh in by their real simulation
// cost. benchreport gates the "super" number on this straight-line-heavy
// mix (-min-block, BLOCK_FLOOR).
func BenchmarkSimulatorThroughputBlocks(b *testing.B) {
	type mixCfg struct {
		name    string
		tgt     isa.Target
		mode    devrt.Mode
		threads uint32
	}
	mix := []mixCfg{
		{"pulp-4t", isa.PULPFull, devrt.Accel, 4},
		{"pulp-1t", isa.PULPFull, devrt.Accel, 1},
		{"m4-host", isa.CortexM4, devrt.Host, 1},
	}
	k := kernels.MatMulChar(64)
	in := k.Input(1)
	type mixJob struct {
		cfg  cluster.Config
		mode devrt.Mode
		job  loader.Job
	}
	jobs := make([]mixJob, 0, len(mix))
	for _, mc := range mix {
		prog, err := k.Build(mc.tgt, mc.mode)
		if err != nil {
			b.Fatal(err)
		}
		var cfg cluster.Config
		if mc.mode == devrt.Accel {
			cfg = cluster.PULPConfig()
			cfg.Target = mc.tgt
		} else {
			cfg = cluster.MCUConfig(mc.tgt)
		}
		comp, err := kernels.Compiled(prog, cfg.Target)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, mixJob{cfg: cfg, mode: mc.mode, job: loader.Job{
			Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1,
			Threads: mc.threads, Args: k.Args(), Compiled: comp,
		}})
	}
	for _, variant := range []struct {
		name     string
		noBlocks bool
	}{{"stepped", true}, {"super", false}} {
		b.Run(variant.name, func(b *testing.B) {
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, mj := range jobs {
					cfg := mj.cfg
					cfg.NoBlocks = variant.noBlocks
					res, err := cluster.RunJob(cfg, mj.mode, mj.job, 2_000_000_000)
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Cycles
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cycles)/secs/1e6, "Msimcycles/s")
			}
		})
	}
}

// BenchmarkSimulatorThroughputBranchy measures the branch-heavy half of
// the story: the branchy randomized family (hot backward-branch loops,
// taken-branch chains, nested hardware loops, barrier-skewed solo phases)
// on the same three cluster shapes as the block differentials, in stepped
// and fused mode. Clusters are built and programs compiled once outside
// the timed loop; each iteration is Start+Run only, so the benchmark
// doubles as the steady-state allocation audit — benchreport gates
// allocs/op at 0 (-max-allocs) and the fused-over-stepped ratio
// (-min-ratio) on this subset.
func BenchmarkSimulatorThroughputBranchy(b *testing.B) {
	pulp1 := cluster.PULPConfig()
	pulp1.Cores = 1
	shapes := []struct {
		cfg      cluster.Config
		hwloop   bool
		barriers bool
	}{
		{cluster.PULPConfig(), true, true},
		{pulp1, true, false},
		{cluster.MCUConfig(isa.CortexM4), false, false},
	}
	shapeNames := []string{"pulp-4c", "pulp-1c", "m4"}
	for _, variant := range []struct {
		name     string
		noBlocks bool
	}{{"stepped", true}, {"super", false}} {
		for shi, sh := range shapes {
			sh := sh
			name := variant.name + "/" + shapeNames[shi]
			noBlocks := variant.noBlocks
			b.Run(name, func(b *testing.B) {
				type run struct {
					cl    *cluster.Cluster
					entry uint32
				}
				var runs []run
				for seed := int64(1); seed <= 4; seed++ {
					p := kernels.BranchyProgram(seed, kernels.BranchyOpts{
						HWLoop: sh.hwloop, Barriers: sh.barriers, Scale: 8,
					})
					cfg := sh.cfg
					cfg.NoBlocks = noBlocks
					cl := cluster.New(cfg)
					comp, err := kernels.Compiled(p, cfg.Target)
					if err != nil {
						b.Fatal(err)
					}
					if err := cl.LoadCompiled(p, true, comp); err != nil {
						b.Fatal(err)
					}
					runs = append(runs, run{cl, p.Entry})
				}
				var cycles uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, rn := range runs {
						rn.cl.Start(rn.entry)
						res, err := rn.cl.Run(10_000_000)
						if err != nil {
							b.Fatal(err)
						}
						cycles += res.Cycles
					}
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(cycles)/secs/1e6, "Msimcycles/s")
				}
			})
		}
	}
}

// BenchmarkSimulatorThroughputObs is BenchmarkSimulatorThroughput with the
// full observability layer attached — per-core cycle attribution plus the
// span timeline. benchreport compares its Msimcycles/s against the plain
// benchmark to gate the observed-mode overhead; the obs-OFF zero-cost
// claim is gated separately by -max-loss against the pre-PR baseline.
func BenchmarkSimulatorThroughputObs(b *testing.B) {
	k := hetsim.MatMulChar(64)
	prog, err := k.Build(hetsim.PULPFull, hetsim.Accel)
	if err != nil {
		b.Fatal(err)
	}
	in := k.Input(1)
	sys, err := hetsim.NewSystem(hetsim.SystemConfig{
		Host: hetsim.STM32L476, HostFreqHz: 16e6, Lanes: 4,
		AccVdd: 0.8, AccFreqHz: 200e6,
	})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := sys.Offload(hetsim.Job{
			Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args(),
		}, hetsim.OffloadOptions{
			Obs: hetsim.NewAttribution(0), Timeline: hetsim.NewTimeline(),
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += rep.ComputeCycles
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs/1e6, "Msimcycles/s")
	}
}
