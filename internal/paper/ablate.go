package paper

import (
	"fmt"
	"io"

	"hetsim/internal/cluster"
	"hetsim/internal/core"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/power"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// This file holds the beyond-paper ablations: the studies Section V
// sketches (decoupled link clock, sensor-direct data path) and the
// design-choice ablations DESIGN.md calls out (per-extension speedup
// contribution, TCDM banking). Each simulating ablation is a sweep
// producer/consumer: it emits one job per simulated point and folds the
// in-order results into its rows. The link and sensor ablations simulate
// nothing: they compose offloads from the measured pulp-4t compute.

// --- Per-extension ablation -----------------------------------------------------

// ExtVariant is one feature-removed build of the accelerator core.
type ExtVariant struct {
	Name string
	Mod  func(*isa.Features)
}

// ExtVariants lists the ablated features (one at a time, relative to the
// full OR10N configuration).
var ExtVariants = []ExtVariant{
	{"-SIMD", func(f *isa.Features) { f.SIMD = false }},
	{"-HWLoop", func(f *isa.Features) { f.HWLoop = false }},
	{"-MacRR", func(f *isa.Features) { f.MacRR = false }},
	{"-PostIncr", func(f *isa.Features) { f.PostIncr = false }},
	{"-MinMax", func(f *isa.Features) { f.MinMax = false }},
}

// ExtAblationRow is one kernel's per-extension slowdown factors
// (variant cycles / full cycles on a single OR10N core).
type ExtAblationRow struct {
	Name       string
	FullCycles uint64
	Slowdown   []float64 // parallel to ExtVariants
}

// ExtensionAblation measures how much each OR10N extension contributes to
// each kernel, using a default engine.
func ExtensionAblation(suite []*kernels.Instance) ([]ExtAblationRow, error) {
	return ExtensionAblationWith(defaultEngine(), suite)
}

// ExtensionAblationWith measures how much each OR10N extension contributes
// to each kernel: the kernel is rebuilt with one feature disabled (the code
// generator adapts, exactly like recompiling with a flag off) and rerun on
// a single core. A slowdown of 1.0 means the kernel never used the
// feature. One job per (kernel, variant) pair, plus the full build.
func ExtensionAblationWith(eng *sweep.Engine, suite []*kernels.Instance) ([]ExtAblationRow, error) {
	var jobs []sweep.Job[uint64]
	for _, k := range suite {
		full, err := variantJob(k, isa.PULPFull)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, full)
		for _, v := range ExtVariants {
			tgt := isa.PULPFull
			tgt.Name = isa.PULPFull.Name + v.Name
			v.Mod(&tgt.Feat)
			job, err := variantJob(k, tgt)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", k.Name, v.Name, err)
			}
			jobs = append(jobs, job)
		}
	}
	cycles, err := sweep.Run(eng, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtAblationRow, 0, len(suite))
	perKernel := 1 + len(ExtVariants)
	for i, k := range suite {
		row := ExtAblationRow{Name: k.Name, FullCycles: cycles[i*perKernel]}
		for v := range ExtVariants {
			row.Slowdown = append(row.Slowdown,
				float64(cycles[i*perKernel+1+v])/float64(row.FullCycles))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// variantJob builds the single-core run of one (kernel, target-variant)
// pair as a sweep job.
func variantJob(k *kernels.Instance, tgt isa.Target) (sweep.Job[uint64], error) {
	prog, err := k.Build(tgt, devrt.Accel)
	if err != nil {
		return sweep.Job[uint64]{}, err
	}
	cfg := cluster.PULPConfig()
	cfg.Target = tgt
	in := k.Input(1)
	ph, err := progKey(prog)
	if err != nil {
		return sweep.Job[uint64]{}, err
	}
	key := fmt.Sprintf("extablate|%s|%s|prog=%s|threads=1|max=%d",
		kernelKey(k, in), clusterKey(cfg), ph, uint64(measureMaxCycles))
	comp, err := kernels.Compiled(prog, cfg.Target)
	if err != nil {
		return sweep.Job[uint64]{}, err
	}
	job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 1, Args: k.Args(), Compiled: comp}
	return sweep.Job[uint64]{
		Key: key,
		Run: func() (uint64, error) {
			res, err := cluster.RunJob(cfg, devrt.Accel, job, measureMaxCycles)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		},
	}, nil
}

// RenderExtensionAblation prints the slowdown matrix.
func RenderExtensionAblation(w io.Writer, rows []ExtAblationRow) {
	fmt.Fprintf(w, "single-core slowdown when disabling one OR10N extension (1.00 = unused)\n")
	fmt.Fprintf(w, "%-16s %10s |", "Benchmark", "full cyc")
	for _, v := range ExtVariants {
		fmt.Fprintf(w, " %9s", v.Name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d |", r.Name, r.FullCycles)
		for _, s := range r.Slowdown {
			fmt.Fprintf(w, " %8.2fx", s)
		}
		fmt.Fprintln(w)
	}
}

// --- TCDM bank sweep --------------------------------------------------------------

// BankSweepPoint is the 4-core cycle count at one bank count.
type BankSweepPoint struct {
	Banks        int
	Cycles       uint64
	ConflictRate float64
}

// BankSweep measures the 4-core matmul against the number of TCDM banks,
// using a default engine.
func BankSweep(k *kernels.Instance) ([]BankSweepPoint, error) {
	return BankSweepWith(defaultEngine(), k)
}

// BankSweepWith measures the 4-core kernel against the number of TCDM
// banks: with fewer banks than cores the interconnect serializes (the
// ablation behind the "2 banks per core" rule of PULP clusters). One job
// per bank count.
func BankSweepWith(eng *sweep.Engine, k *kernels.Instance) ([]BankSweepPoint, error) {
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		return nil, err
	}
	in := k.Input(1)
	ph, err := progKey(prog)
	if err != nil {
		return nil, err
	}
	bankCounts := []int{1, 2, 4, 8, 16}
	jobs := make([]sweep.Job[BankSweepPoint], 0, len(bankCounts))
	for _, banks := range bankCounts {
		banks := banks
		cfg := cluster.PULPConfig()
		cfg.TCDMBanks = banks
		key := fmt.Sprintf("banksweep|%s|%s|prog=%s|threads=4|max=%d",
			kernelKey(k, in), clusterKey(cfg), ph, uint64(measureMaxCycles))
		comp, err := kernels.Compiled(prog, cfg.Target)
		if err != nil {
			return nil, err
		}
		job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args(), Compiled: comp}
		jobs = append(jobs, sweep.Job[BankSweepPoint]{
			Key: key,
			Run: func() (BankSweepPoint, error) {
				res, err := cluster.RunJob(cfg, devrt.Accel, job, measureMaxCycles)
				if err != nil {
					return BankSweepPoint{}, fmt.Errorf("banks=%d: %w", banks, err)
				}
				tot := res.Stats.TCDMAccess + res.Stats.TCDMConf
				rate := 0.0
				if tot > 0 {
					rate = float64(res.Stats.TCDMConf) / float64(tot)
				}
				return BankSweepPoint{Banks: banks, Cycles: res.Cycles, ConflictRate: rate}, nil
			},
		})
	}
	return sweep.Run(eng, jobs)
}

// RenderBankSweep prints the sweep.
func RenderBankSweep(w io.Writer, name string, pts []BankSweepPoint) {
	fmt.Fprintf(w, "4-core %s vs TCDM bank count\n", name)
	fmt.Fprintf(w, "%6s %12s %10s %10s\n", "banks", "cycles", "conflicts", "vs 8banks")
	var ref uint64
	for _, p := range pts {
		if p.Banks == 8 {
			ref = p.Cycles
		}
	}
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %12d %9.1f%% %9.2fx\n",
			p.Banks, p.Cycles, p.ConflictRate*100, float64(p.Cycles)/float64(ref))
	}
}

// --- Decoupled link clock (Section V) ------------------------------------------------

// LinkAblationPoint compares the MCU-tied link with a decoupled one.
type LinkAblationPoint struct {
	MCUFreqHz   float64
	LinkHz      float64
	Decoupled   bool
	Efficiency  float64 // double-buffered, 64 iterations
	PerIterTime float64
}

// LinkAblation quantifies Section V's decoupled-link proposal; it
// simulates nothing, so it needs no engine.
func LinkAblation(k *kernels.Instance, m *Measurements) ([]LinkAblationPoint, error) {
	return LinkAblationWith(nil, k, m)
}

// LinkAblationWith quantifies Section V's proposal: at a slow MCU clock
// the tied SPI strangles the pipeline; decoupling the link clock (here
// 32 MHz) removes the bottleneck without raising the MCU frequency. Every
// (MCU frequency, coupling) point is composed from the kernel's measured
// pulp-4t compute, like Fig. 5b: no sweep job, eng is unused.
func LinkAblationWith(eng *sweep.Engine, k *kernels.Instance, m *Measurements) ([]LinkAblationPoint, error) {
	c, err := m.offload(k)
	if err != nil {
		return nil, err
	}
	host := power.STM32L476
	var pts []LinkAblationPoint
	for _, f := range []float64{2e6, 4e6, 8e6} {
		budget := EnvelopeW - host.RunPowerW(f)
		v, fp, ok := power.BestOp(budget, c.compute.Activity)
		if !ok {
			continue
		}
		for _, decoupled := range []bool{false, true} {
			cfg := core.Config{Host: host, HostFreqHz: f, Lanes: 4, AccVdd: v, AccFreqHz: fp}
			if decoupled {
				cfg.LinkClockHz = 32e6
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			rep, err := sys.Compose(c.job, core.Options{Iterations: 64, DoubleBuffer: true}, c.compute)
			if err != nil {
				return nil, err
			}
			pts = append(pts, LinkAblationPoint{
				MCUFreqHz: f, LinkHz: sys.Link.Cfg.ClockHz, Decoupled: decoupled,
				Efficiency:  rep.Efficiency,
				PerIterTime: rep.TotalTime / float64(rep.Iterations),
			})
		}
	}
	return pts, nil
}

// RenderLinkAblation prints the comparison.
func RenderLinkAblation(w io.Writer, name string, pts []LinkAblationPoint) {
	fmt.Fprintf(w, "%s, 64 double-buffered iterations: MCU-tied vs decoupled 32 MHz link\n", name)
	fmt.Fprintf(w, "%8s %10s %10s %12s %14s\n", "MCU MHz", "link MHz", "decoupled", "efficiency", "ms/iteration")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.0f %10.1f %10v %12.3f %14.3f\n",
			p.MCUFreqHz/1e6, p.LinkHz/1e6, p.Decoupled, p.Efficiency, p.PerIterTime*1e3)
	}
}

// --- Sensor data path (Section V / Figure 1) -------------------------------------------

// SensorAblationPoint compares the two sensor wirings of DESIGN.md.
type SensorAblationPoint struct {
	Path        sensor.Path
	Efficiency  float64
	PerIterTime float64
	EnergyPerIt float64
}

// SensorAblation runs the camera-fed pipeline comparison; it simulates
// nothing, so it needs no engine.
func SensorAblation(k *kernels.Instance, m *Measurements, cam sensor.Sensor, mcuHz float64) ([]SensorAblationPoint, error) {
	return SensorAblationWith(nil, k, m, cam, mcuHz)
}

// SensorAblationWith runs a camera-fed pipeline with the sample routed
// through the host (Figure 1) and directly into L2 (Section V variant).
// Both paths are composed from the kernel's measured pulp-4t compute, in
// turn on one system, like Fig. 5b: no sweep job, eng is unused.
func SensorAblationWith(eng *sweep.Engine, k *kernels.Instance, m *Measurements, cam sensor.Sensor, mcuHz float64) ([]SensorAblationPoint, error) {
	c, err := m.offload(k)
	if err != nil {
		return nil, err
	}
	if err := cam.Validate(); err != nil {
		return nil, err
	}
	budget := EnvelopeW - power.STM32L476.RunPowerW(mcuHz)
	v, fp, ok := power.BestOp(budget, c.compute.Activity)
	if !ok {
		return nil, fmt.Errorf("paper: envelope infeasible at %.0f MHz", mcuHz/1e6)
	}
	sys, err := core.NewSystem(core.Config{Host: power.STM32L476, HostFreqHz: mcuHz, Lanes: 4, AccVdd: v, AccFreqHz: fp})
	if err != nil {
		return nil, err
	}
	var pts []SensorAblationPoint
	for _, path := range []sensor.Path{sensor.HostPath, sensor.DirectPath} {
		at, ej, via := cam.Feed(path)
		rep, err := sys.Compose(c.job, core.Options{
			Iterations: 64, DoubleBuffer: true,
			Sensor: &core.SensorFeed{AcquireTime: at, SampleEnergyJ: ej, ViaLink: via},
		}, c.compute)
		if err != nil {
			return nil, err
		}
		pts = append(pts, SensorAblationPoint{
			Path:        path,
			Efficiency:  rep.Efficiency,
			PerIterTime: rep.TotalTime / float64(rep.Iterations),
			EnergyPerIt: rep.Energy.TotalJ() / float64(rep.Iterations),
		})
	}
	return pts, nil
}

// RenderSensorAblation prints the comparison.
func RenderSensorAblation(w io.Writer, name string, pts []SensorAblationPoint) {
	fmt.Fprintf(w, "%s fed by a camera: host-routed (Fig. 1) vs direct-to-L2 (Sec. V)\n", name)
	fmt.Fprintf(w, "%8s %12s %14s %14s\n", "path", "efficiency", "ms/frame", "uJ/frame")
	for _, p := range pts {
		fmt.Fprintf(w, "%8s %12.3f %14.3f %14.1f\n",
			p.Path, p.Efficiency, p.PerIterTime*1e3, p.EnergyPerIt*1e6)
	}
}

// --- Cluster scaling (beyond paper) ---------------------------------------------------

// ScalingPoint is the team-size scaling of one kernel on a wider cluster.
type ScalingPoint struct {
	Threads int
	Cycles  uint64
	Speedup float64 // vs 1 thread
}

// ScalingStudy extends Fig. 4's parallel panel with a default engine.
func ScalingStudy(k *kernels.Instance) ([]ScalingPoint, error) {
	return ScalingStudyWith(defaultEngine(), k)
}

// ScalingStudyWith extends Fig. 4's parallel panel beyond the paper's
// 4-core cluster: the same binaries run on an 8-core cluster (16 TCDM
// banks, doubled I$) with team sizes 1..8, showing where the kernels stop
// scaling. One job per team size.
func ScalingStudyWith(eng *sweep.Engine, k *kernels.Instance) ([]ScalingPoint, error) {
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		return nil, err
	}
	in := k.Input(1)
	ph, err := progKey(prog)
	if err != nil {
		return nil, err
	}
	teamSizes := []int{1, 2, 4, 6, 8}
	jobs := make([]sweep.Job[uint64], 0, len(teamSizes))
	for _, threads := range teamSizes {
		threads := threads
		cfg := cluster.PULPConfig()
		cfg.Cores = 8
		cfg.TCDMBanks = 16
		cfg.ICacheSize = 8 * 1024
		key := fmt.Sprintf("scaling|%s|%s|prog=%s|threads=%d|max=%d",
			kernelKey(k, in), clusterKey(cfg), ph, threads, uint64(measureMaxCycles))
		comp, err := kernels.Compiled(prog, cfg.Target)
		if err != nil {
			return nil, err
		}
		job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1,
			Threads: uint32(threads), Args: k.Args(), Compiled: comp}
		jobs = append(jobs, sweep.Job[uint64]{
			Key: key,
			Run: func() (uint64, error) {
				res, err := cluster.RunJob(cfg, devrt.Accel, job, measureMaxCycles)
				if err != nil {
					return 0, fmt.Errorf("threads=%d: %w", threads, err)
				}
				return res.Cycles, nil
			},
		})
	}
	cycles, err := sweep.Run(eng, jobs)
	if err != nil {
		return nil, err
	}
	pts := make([]ScalingPoint, 0, len(teamSizes))
	base := cycles[0]
	for i, threads := range teamSizes {
		pts = append(pts, ScalingPoint{
			Threads: threads,
			Cycles:  cycles[i],
			Speedup: float64(base) / float64(cycles[i]),
		})
	}
	return pts, nil
}

// RenderScalingStudy prints the scaling curve.
func RenderScalingStudy(w io.Writer, name string, pts []ScalingPoint) {
	fmt.Fprintf(w, "%s on an 8-core cluster (beyond the paper's 4)\n", name)
	fmt.Fprintf(w, "%8s %12s %9s\n", "threads", "cycles", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %12d %8.2fx\n", p.Threads, p.Cycles, p.Speedup)
	}
}
