package paper

import (
	"fmt"
	"io"
	"sort"

	"hetsim/internal/core"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/power"
	"hetsim/internal/sweep"
)

// --- Table I -----------------------------------------------------------------

// Table1Row is one benchmark summary line.
type Table1Row struct {
	Name    string
	Desc    string
	Field   string
	In      int
	Out     int
	Binary  int
	RISCOps uint64
}

// Table1 regenerates the benchmark summary from the measurements.
func (m *Measurements) Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(m.Suite))
	for _, k := range m.Suite {
		km := m.ByK[k.Name]
		rows = append(rows, Table1Row{
			Name: k.Name, Desc: k.Desc, Field: k.Field,
			In: km.InBytes, Out: km.OutBytes, Binary: km.BinBytes,
			RISCOps: km.RISCOps,
		})
	}
	return rows
}

// RenderTable1 prints the table in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-16s %-18s %8s %8s %8s %10s\n",
		"Benchmark", "Field", "Input", "Output", "Binary", "RISC ops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-18s %7.1fk %7.1fk %7.1fk %9.2fM\n",
			r.Name, r.Field,
			float64(r.In)/1024, float64(r.Out)/1024, float64(r.Binary)/1024,
			float64(r.RISCOps)/1e6)
	}
}

// --- Figure 3 ----------------------------------------------------------------

// Fig3Point is one platform operating point in the efficiency landscape.
type Fig3Point struct {
	Platform string
	Kind     string // "pulp" or "mcu"
	VDD      float64
	FreqHz   float64
	PowerW   float64
	GOPS     float64
	GOPSperW float64
}

// Figure3 computes the matmul GOPS-vs-power scatter: the PULP cluster at
// every characterized voltage (at f_max) against the commercial MCUs at
// their maximum datasheet frequency.
func (m *Measurements) Figure3() ([]Fig3Point, error) {
	km, ok := m.ByK["matmul"]
	if !ok {
		return nil, fmt.Errorf("paper: figure 3 needs the matmul kernel in the suite")
	}
	var pts []Fig3Point
	for _, op := range power.OpPoints {
		p := power.PULPPowerW(op.VDD, op.FMax, km.Activity)
		gops := km.OpsPerCycle(cfgPULP4) * op.FMax / 1e9
		pts = append(pts, Fig3Point{
			Platform: "PULP", Kind: "pulp", VDD: op.VDD, FreqHz: op.FMax,
			PowerW: p, GOPS: gops, GOPSperW: gops / p * 1,
		})
	}
	for _, mcu := range power.AllMCUs {
		key := cfgM4
		if mcu.Target.Name == isa.CortexM3.Name {
			key = cfgM3
		}
		cyc := mcu.Cycles(km.Cycles[key])
		opsPerCyc := float64(km.RISCOps) / cyc
		p := mcu.RunPowerW(mcu.FMax)
		gops := opsPerCyc * mcu.FMax / 1e9
		pts = append(pts, Fig3Point{
			Platform: mcu.Name, Kind: "mcu", FreqHz: mcu.FMax,
			PowerW: p, GOPS: gops, GOPSperW: gops / p,
		})
	}
	return pts, nil
}

// RenderFigure3 prints the scatter as a table sorted by efficiency.
func RenderFigure3(w io.Writer, pts []Fig3Point) {
	sorted := append([]Fig3Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].GOPSperW > sorted[j].GOPSperW })
	fmt.Fprintf(w, "%-22s %6s %9s %10s %10s %10s\n",
		"Platform", "VDD", "f [MHz]", "P [mW]", "GOPS", "GOPS/W")
	for _, p := range sorted {
		vdd := "-"
		if p.VDD > 0 {
			vdd = fmt.Sprintf("%.1f", p.VDD)
		}
		fmt.Fprintf(w, "%-22s %6s %9.1f %10.3f %10.3f %10.1f\n",
			p.Platform, vdd, p.FreqHz/1e6, p.PowerW*1e3, p.GOPS, p.GOPSperW)
	}
}

// --- Figure 4 ----------------------------------------------------------------

// Fig4Row is one benchmark's speedup decomposition.
type Fig4Row struct {
	Name string
	// Architectural speedup (Fig. 4 left): single OR10N core vs M3/M4.
	ArchVsM3 float64
	ArchVsM4 float64
	// Parallel speedup (Fig. 4 right) on top of the architectural one.
	Par2 float64
	Par4 float64
}

// Figure4 computes both halves of Fig. 4.
func (m *Measurements) Figure4() []Fig4Row {
	rows := make([]Fig4Row, 0, len(m.Suite))
	for _, k := range m.Suite {
		km := m.ByK[k.Name]
		p1 := float64(km.Cycles[cfgPULP1])
		rows = append(rows, Fig4Row{
			Name:     k.Name,
			ArchVsM3: float64(km.Cycles[cfgM3]) / p1,
			ArchVsM4: float64(km.Cycles[cfgM4]) / p1,
			Par2:     p1 / float64(km.Cycles[cfgPULP2]),
			Par4:     p1 / float64(km.Cycles[cfgPULP4]),
		})
	}
	return rows
}

// OMPOverhead estimates the average OpenMP runtime overhead across the
// suite: the gap between the measured 4-core speedup and the ideal 4x,
// attributable to dispatch, barriers and scheduling (the paper reports an
// average of ~6%).
func OMPOverhead(rows []Fig4Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += 1 - r.Par4/4
	}
	return sum / float64(len(rows))
}

// RenderFigure4 prints the decomposition.
func RenderFigure4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s\n",
		"Benchmark", "arch(M3)", "arch(M4)", "par x2", "par x4")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.2fx %9.2fx %7.2fx %7.2fx\n",
			r.Name, r.ArchVsM3, r.ArchVsM4, r.Par2, r.Par4)
	}
	fmt.Fprintf(w, "average OpenMP+Amdahl overhead vs ideal 4x: %.1f%%\n", OMPOverhead(rows)*100)
}

// --- Figure 5a ----------------------------------------------------------------

// EnvelopeW is the total power envelope of the Fig. 5 study.
const EnvelopeW = 10e-3

// MCUFreqsHz are the host frequencies explored in Fig. 5 (the baseline is
// 32 MHz; lower frequencies free budget for the accelerator).
var MCUFreqsHz = []float64{32e6, 26e6, 16e6, 8e6, 4e6, 2e6, 1e6}

// BeyondFreqsHz are the beyond-envelope MCU-only points of Fig. 5a.
var BeyondFreqsHz = []float64{48e6, 64e6, 80e6}

// Fig5aEntry is one (kernel, MCU frequency) point.
type Fig5aEntry struct {
	MCUFreqHz  float64
	BudgetW    float64 // power left for the accelerator
	PULPVdd    float64
	PULPFreqHz float64
	Speedup    float64 // vs the MCU baseline at 32 MHz
	Feasible   bool
}

// Fig5aRow is one kernel's envelope sweep.
type Fig5aRow struct {
	Name        string
	OpsPerCycle float64 // RISC ops/cycle on the 4-core cluster (annotation)
	MCUOpsPerCy float64 // RISC ops/cycle on the MCU (annotation)
	Entries     []Fig5aEntry
	Beyond      []Fig5aEntry // MCU-only beyond-envelope points
}

// Figure5a computes the speedup achievable within the 10 mW envelope: for
// each host frequency the remaining budget clocks the accelerator as fast
// as the power model allows, and the speedup is measured against the
// STM32-L476 at 32 MHz. Offload costs are excluded, as in the paper's
// Fig. 5a ("we do not yet consider the cost of the offload procedure").
func (m *Measurements) Figure5a() []Fig5aRow {
	host := power.STM32L476
	var rows []Fig5aRow
	for _, k := range m.Suite {
		km := m.ByK[k.Name]
		baseSec := host.Cycles(km.Cycles[cfgM4]) / 32e6
		row := Fig5aRow{
			Name:        k.Name,
			OpsPerCycle: km.OpsPerCycle(cfgPULP4),
			MCUOpsPerCy: km.OpsPerCycle(cfgM4),
		}
		for _, f := range MCUFreqsHz {
			e := Fig5aEntry{MCUFreqHz: f}
			// The link is idle while the accelerator computes, so only the
			// host's run power is charged against the envelope.
			e.BudgetW = EnvelopeW - host.RunPowerW(f)
			if e.BudgetW > 0 {
				v, fp, ok := power.BestOp(e.BudgetW, km.Activity)
				if ok {
					accSec := float64(km.Cycles[cfgPULP4]) / fp
					e.PULPVdd, e.PULPFreqHz, e.Feasible = v, fp, true
					e.Speedup = baseSec / accSec
				}
			}
			if !e.Feasible {
				// No room for the accelerator: the MCU alone at f.
				e.Speedup = f / 32e6
			}
			row.Entries = append(row.Entries, e)
		}
		for _, f := range BeyondFreqsHz {
			row.Beyond = append(row.Beyond, Fig5aEntry{
				MCUFreqHz: f,
				Speedup:   f / 32e6, // same cycles, higher clock
			})
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure5a prints the envelope sweep.
func RenderFigure5a(w io.Writer, rows []Fig5aRow) {
	fmt.Fprintf(w, "speedup vs STM32-L476 @ 32 MHz within a %.0f mW envelope\n", EnvelopeW*1e3)
	fmt.Fprintf(w, "%-16s %9s |", "Benchmark", "ops/cyc")
	for _, f := range MCUFreqsHz {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("MCU@%g", f/1e6))
	}
	fmt.Fprintf(w, " | beyond:")
	for _, f := range BeyondFreqsHz {
		fmt.Fprintf(w, " %5s", fmt.Sprintf("@%g", f/1e6))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.2f |", r.Name, r.OpsPerCycle)
		for _, e := range r.Entries {
			fmt.Fprintf(w, " %6.1fx", e.Speedup)
		}
		fmt.Fprintf(w, " |        ")
		for _, e := range r.Beyond {
			fmt.Fprintf(w, " %4.1fx", e.Speedup)
		}
		fmt.Fprintln(w)
	}
	// Operating points chosen per MCU frequency (same for all kernels to
	// first order; print the matmul row's selections).
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-16s %9s |", "(PULP op)", "")
		for _, e := range rows[0].Entries {
			if e.Feasible {
				fmt.Fprintf(w, " %7s", fmt.Sprintf("%.0fMHz", e.PULPFreqHz/1e6))
			} else {
				fmt.Fprintf(w, " %7s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// --- Figure 5b ----------------------------------------------------------------

// Fig5bIterations is the amortization axis.
var Fig5bIterations = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig5bMCUFreqsHz are the host frequencies of the Fig. 5b study.
var Fig5bMCUFreqsHz = []float64{2e6, 4e6, 8e6, 16e6, 26e6}

// Fig5bSeries is the efficiency curve of one host frequency.
type Fig5bSeries struct {
	MCUFreqHz  float64
	PULPVdd    float64
	PULPFreqHz float64
	Eff        []float64 // without double buffering, per Fig5bIterations
	EffDB      []float64 // with double buffering
}

// Figure5bWith prices the full offload pipeline (binary + per-iteration
// data over QSPI) for the given kernel at every host frequency, with the
// accelerator at its envelope operating point, and reports efficiency vs
// the ideal (compute-only) time. Iteration count, buffering, host clock
// and V/f enter only the composition, so every point is composed
// (core.System.Compose) from the kernel's measured pulp-4t compute
// instead of re-simulated: no sweep job is submitted and eng is unused.
// One system per host frequency carries its link meter through the
// series, in the order a serial study of direct offloads would.
func Figure5bWith(eng *sweep.Engine, k *kernels.Instance, m *Measurements) ([]Fig5bSeries, error) {
	c, err := m.offload(k)
	if err != nil {
		return nil, err
	}
	host := power.STM32L476
	var series []Fig5bSeries
	for _, f := range Fig5bMCUFreqsHz {
		budget := EnvelopeW - host.RunPowerW(f)
		v, fp, ok := power.BestOp(budget, c.compute.Activity)
		if !ok {
			continue
		}
		sys, err := core.NewSystem(core.Config{Host: host, HostFreqHz: f, Lanes: 4, AccVdd: v, AccFreqHz: fp})
		if err != nil {
			return nil, err
		}
		s := Fig5bSeries{MCUFreqHz: f, PULPVdd: v, PULPFreqHz: fp}
		for _, n := range Fig5bIterations {
			rep, err := sys.Compose(c.job, core.Options{Iterations: n}, c.compute)
			if err != nil {
				return nil, err
			}
			s.Eff = append(s.Eff, rep.Efficiency)
			repDB, err := sys.Compose(c.job, core.Options{Iterations: n, DoubleBuffer: true}, c.compute)
			if err != nil {
				return nil, err
			}
			s.EffDB = append(s.EffDB, repDB.Efficiency)
		}
		series = append(series, s)
	}
	return series, nil
}

// RenderFigure5b prints both efficiency families.
func RenderFigure5b(w io.Writer, kernelName string, series []Fig5bSeries) {
	fmt.Fprintf(w, "offload efficiency vs ideal, %s, QSPI = MCU clock / 2\n", kernelName)
	for _, db := range []bool{false, true} {
		if db {
			fmt.Fprintln(w, "with double buffering:")
		} else {
			fmt.Fprintln(w, "single buffered:")
		}
		fmt.Fprintf(w, "%-22s", "iterations/offload:")
		for _, n := range Fig5bIterations {
			fmt.Fprintf(w, " %6d", n)
		}
		fmt.Fprintln(w)
		for _, s := range series {
			fmt.Fprintf(w, "MCU %4.0f MHz (P@%3.0fMHz)", s.MCUFreqHz/1e6, s.PULPFreqHz/1e6)
			vals := s.Eff
			if db {
				vals = s.EffDB
			}
			for _, v := range vals {
				fmt.Fprintf(w, " %6.3f", v)
			}
			fmt.Fprintln(w)
		}
	}
}
