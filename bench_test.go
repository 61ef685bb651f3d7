// Simulator-throughput benchmarks: the cost of the methodology in
// simulated cycles per wall-clock second, on the 4-core matmul offload
// (plain and with observability attached), on the fused-vs-stepped
// straight-line kernel mix, on the branch-heavy family and on the
// paper-size four-core team.
//
//	go test -run xxx -bench SimulatorThroughput -benchmem .
//
// These are hand-run tools for paired measurements: compare two trees
// only with interleaved runs on one machine. No test gates on their wall
// clock. What they would regress on is asserted on counters in the
// ordinary suite: the tier split (TestTierCoverage), the steady-state
// allocations (TestSteadyRunsAllocateNothing), detached observability
// (TestDetachedRunsArmNoObs) and the warm campaign
// (TestWarmCampaignBuildsNothing). The paper's tables and figures are
// pinned byte-for-byte by the goldens in internal/paper; the end-to-end
// campaign benchmark lives in bench/.
package hetsim_test

import (
	"testing"

	"hetsim"
	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// BenchmarkSimulatorThroughput measures the raw simulator speed (simulated
// cycles per second) on the 4-core matmul — the cost of the methodology.
func BenchmarkSimulatorThroughput(b *testing.B) { offloadThroughput(false)(b) }

// BenchmarkSimulatorThroughputObs is BenchmarkSimulatorThroughput with the
// full observability layer attached — per-core cycle attribution plus the
// span timeline. Its overhead against the plain benchmark is what
// attaching observability costs.
func BenchmarkSimulatorThroughputObs(b *testing.B) { offloadThroughput(true)(b) }

// BenchmarkSimulatorThroughputBlocks measures fused execution (DESIGN.md
// §12–13) against pure stepped execution on the reference kernel mix:
// matmul-64 on the 4-thread and 1-thread PULP accelerator configs and on
// the Cortex-M4 host.
func BenchmarkSimulatorThroughputBlocks(b *testing.B) {
	for _, tier := range tiers {
		b.Run(tier.name, mixThroughput(tier.stepped))
	}
}

// BenchmarkSimulatorThroughputBranchy measures the branch-heavy half of
// the story: the branchy randomized family on the same three cluster
// shapes as the block differentials, in stepped and fused mode.
func BenchmarkSimulatorThroughputBranchy(b *testing.B) {
	for _, tier := range tiers {
		for _, sh := range branchyShapes {
			b.Run(tier.name+"/"+sh.name, branchyThroughput(sh, tier.stepped))
		}
	}
}

// BenchmarkSimulatorThroughputTeam measures multi-core execution, where
// optimistic windows (DESIGN.md §13) do their work: the paper-size matmul,
// cnn and hog on the four-core PULP cluster, in stepped and fused mode.
func BenchmarkSimulatorThroughputTeam(b *testing.B) {
	for _, tier := range tiers {
		b.Run(tier.name, teamThroughput(tier.stepped))
	}
}

// tiers are the two execution tiers the fused benchmarks compare:
// stepped (Config.NoBlocks) and fused ("super").
var tiers = []struct {
	name    string
	stepped bool
}{{"stepped", true}, {"super", false}}

// reportThroughput reports the simulated cycles of the timed loop per
// wall-clock second.
func reportThroughput(b *testing.B, cycles uint64) {
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs/1e6, "Msimcycles/s")
	}
}

// offloadThroughput returns the body of BenchmarkSimulatorThroughput: a
// full 4-core matmul offload per iteration, with the cycle attribution
// and span timeline attached when obs is set.
func offloadThroughput(obs bool) func(*testing.B) {
	return func(b *testing.B) {
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
			var opts hetsim.OffloadOptions
			if obs {
				opts = hetsim.OffloadOptions{Obs: hetsim.NewAttribution(0), Timeline: hetsim.NewTimeline()}
			}
			_, rep, err := sys.Offload(hetsim.Job{
				Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args(),
			}, opts)
			if err != nil {
				b.Fatal(err)
			}
			cycles += rep.ComputeCycles
		}
		reportThroughput(b, cycles)
	}
}

// mixThroughput returns the body of one SimulatorThroughputBlocks tier.
// The mix metric is aggregate simulated cycles per second (total cycles /
// total wall time), so solo-heavy configurations (1t, host) and the
// multi-core config weigh in by their real simulation cost. Each
// iteration builds its clusters through RunJob, so this mix is not an
// allocation audit.
func mixThroughput(stepped bool) func(*testing.B) {
	return func(b *testing.B) {
		mix := []struct {
			tgt     isa.Target
			mode    devrt.Mode
			threads uint32
		}{
			{isa.PULPFull, devrt.Accel, 4}, // pulp-4t
			{isa.PULPFull, devrt.Accel, 1}, // pulp-1t
			{isa.CortexM4, devrt.Host, 1},  // m4-host
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
			cfg.NoBlocks = stepped
			comp, err := kernels.Compiled(prog, cfg.Target)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, mixJob{cfg: cfg, mode: mc.mode, job: loader.Job{
				Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1,
				Threads: mc.threads, Args: k.Args(), Compiled: comp,
			}})
		}
		var cycles uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, mj := range jobs {
				res, err := cluster.RunJob(mj.cfg, mj.mode, mj.job, 2_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
		}
		reportThroughput(b, cycles)
	}
}

// branchyShape is one cluster shape of the branchy family.
type branchyShape struct {
	name     string
	cfg      cluster.Config
	hwloop   bool
	barriers bool
}

var branchyShapes = func() []branchyShape {
	pulp1 := cluster.PULPConfig()
	pulp1.Cores = 1
	return []branchyShape{
		{"pulp-4c", cluster.PULPConfig(), true, true},
		{"pulp-1c", pulp1, true, false},
		{"m4", cluster.MCUConfig(isa.CortexM4), false, false},
	}
}()

// branchyThroughput returns the body of one SimulatorThroughputBranchy
// variant: the branchy randomized family (hot backward-branch loops,
// taken-branch chains, nested hardware loops, barrier-skewed solo phases)
// on one shape and tier. Clusters are built and programs compiled once
// outside the timed loop; each iteration is Start+Run only, so the
// variant doubles as the steady-state allocation audit.
func branchyThroughput(sh branchyShape, stepped bool) func(*testing.B) {
	return func(b *testing.B) {
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
			cfg.NoBlocks = stepped
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
		reportThroughput(b, cycles)
	}
}

// teamThroughput returns the body of one SimulatorThroughputTeam tier:
// matmul, cnn and hog at their paper sizes with four threads on pulp-4c.
// Each cluster is built, loaded and staged once outside the timed loop and
// run once untimed (which allocates the window log); each iteration is
// Start+Run only, so the variant doubles as the steady-state allocation
// audit of the team path.
func teamThroughput(stepped bool) func(*testing.B) {
	return func(b *testing.B) {
		type run struct {
			cl    *cluster.Cluster
			entry uint32
		}
		var runs []run
		for _, k := range []*kernels.Instance{kernels.MatMulChar(64), kernels.CNN(false), kernels.HOG(128, 128)} {
			cfg := cluster.PULPConfig()
			cfg.NoBlocks = stepped
			prog, err := k.Build(cfg.Target, devrt.Accel)
			if err != nil {
				b.Fatal(err)
			}
			comp, err := kernels.Compiled(prog, cfg.Target)
			if err != nil {
				b.Fatal(err)
			}
			job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1,
				Threads: 4, Args: k.Args(), StackCores: cfg.Cores}
			l, err := loader.Plan(job, cfg.TCDMSize, cfg.L2Size)
			if err != nil {
				b.Fatal(err)
			}
			cl := cluster.New(cfg)
			if err := cl.LoadCompiled(prog, false, comp); err != nil {
				b.Fatal(err)
			}
			if err := cl.L2.WriteBytes(hw.DescBase, loader.Descriptor(job, l)); err != nil {
				b.Fatal(err)
			}
			if err := cl.L2.WriteBytes(l.InLMA, job.In); err != nil {
				b.Fatal(err)
			}
			runs = append(runs, run{cl, prog.Entry})
		}
		var cycles uint64
		pass := func() {
			for _, rn := range runs {
				rn.cl.Start(rn.entry)
				res, err := rn.cl.Run(2_000_000_000)
				if err != nil || !res.EOC || res.EOCValue != 1 {
					b.Fatalf("team run: %+v, %v", res, err)
				}
				cycles += res.Cycles
			}
		}
		pass()
		cycles = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		reportThroughput(b, cycles)
	}
}
