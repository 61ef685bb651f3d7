package paper

import (
	"fmt"
	"io"

	"hetsim/internal/kernels"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// Experiments names the sections RenderCampaign prints, in its order.
// With "all" they are the values `hetexp -exp` accepts.
var Experiments = []string{"table1", "fig3", "fig4", "fig5a", "ablate", "fig5b"}

// CampaignOptions selects what RenderCampaign prints.
type CampaignOptions struct {
	// Include reports whether an experiment, one of Experiments, is
	// printed. Nil prints every one.
	Include func(exp string) bool
	// Breakdown prints the pulp-4t stall-breakdown table first; the
	// measurements must then come from MeasureObservedWith.
	Breakdown bool
	// Fig5bKernel names the kernel of Fig. 5b ("" = matmul).
	Fig5bKernel string
}

// RenderCampaign runs the selected experiments of the evaluation on the
// measurements m — simulating through eng where an experiment needs more
// than m holds — and writes one titled section per experiment to w, in the
// order `hetexp -exp all` prints them. The ablations pick their kernels
// by suite position, as laid out by kernels.PaperSuite and SmallSuite:
// matmul first, cnn eighth, hog last. The sensor ablation's camera frame
// is sized to the hog kernel's input.
func RenderCampaign(w io.Writer, eng *sweep.Engine, m *Measurements, opts CampaignOptions) error {
	include := func(exp string) bool { return opts.Include == nil || opts.Include(exp) }
	section := func(title string) { fmt.Fprintf(w, "== %s ==\n", title) }
	suite := m.Suite

	if opts.Breakdown {
		section("Stall breakdown: pulp-4t cycle attribution (beyond paper)")
		rows, err := m.BreakdownTable()
		if err != nil {
			return err
		}
		RenderBreakdown(w, rows)
		fmt.Fprintln(w)
	}
	if include("table1") {
		section("Table I: benchmark summary")
		RenderTable1(w, m.Table1())
		fmt.Fprintln(w)
	}
	if include("fig3") {
		section("Figure 3: energy efficiency on matmul")
		pts, err := m.Figure3()
		if err != nil {
			return err
		}
		RenderFigure3(w, pts)
		fmt.Fprintln(w)
	}
	if include("fig4") {
		section("Figure 4: architectural and parallel speedup")
		RenderFigure4(w, m.Figure4())
		fmt.Fprintln(w)
	}
	if include("fig5a") {
		section("Figure 5a: speedup within the 10 mW envelope")
		RenderFigure5a(w, m.Figure5a())
		fmt.Fprintln(w)
	}
	if include("ablate") {
		section("Ablation: per-extension contribution (beyond paper)")
		ext, err := ExtensionAblationWith(eng, suite)
		if err != nil {
			return err
		}
		RenderExtensionAblation(w, ext)
		fmt.Fprintln(w)

		mm := suite[0] // matmul
		section("Ablation: TCDM bank count (beyond paper)")
		banks, err := BankSweepWith(eng, mm)
		if err != nil {
			return err
		}
		RenderBankSweep(w, mm.Name, banks)
		fmt.Fprintln(w)

		section("Ablation: decoupled link clock (Section V)")
		la, err := LinkAblationWith(eng, mm, m)
		if err != nil {
			return err
		}
		RenderLinkAblation(w, mm.Name, la)
		fmt.Fprintln(w)

		section("Ablation: 8-core cluster scaling (beyond paper)")
		for _, k := range []*kernels.Instance{mm, suite[7]} { // matmul, cnn
			sc, err := ScalingStudyWith(eng, k)
			if err != nil {
				return err
			}
			RenderScalingStudy(w, k.Name, sc)
		}
		fmt.Fprintln(w)

		hog := suite[len(suite)-1]
		section("Ablation: sensor data path (Section V)")
		cam := sensor.QVGACamera()
		cam.SampleBytes = m.ByK[hog.Name].InBytes
		sa, err := SensorAblationWith(eng, hog, m, cam, 8e6)
		if err != nil {
			return err
		}
		RenderSensorAblation(w, hog.Name, sa)
		fmt.Fprintln(w)
	}
	if include("fig5b") {
		name := opts.Fig5bKernel
		if name == "" {
			name = "matmul"
		}
		km, ok := m.ByK[name]
		if !ok {
			return fmt.Errorf("kernel %q not in suite", name)
		}
		k := km.K
		section("Figure 5b: offload-cost amortization")
		series, err := Figure5bWith(eng, k, m)
		if err != nil {
			return err
		}
		RenderFigure5b(w, k.Name, series)
		fmt.Fprintln(w)
	}
	return nil
}
