package paper

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"hetsim/internal/kernels"
	"hetsim/internal/sensor"
)

// Experiments names the sections RenderCampaign prints, in its order.
// With "all" they are the values `hetexp -exp` accepts.
var Experiments = []string{"table1", "fig3", "fig4", "fig5a", "ablate", "fig5b"}

// CampaignOptions selects what RenderCampaign prints.
type CampaignOptions struct {
	// Include reports whether an experiment, one of Experiments, is
	// printed; it is asked once per experiment, in Experiments order. Nil
	// prints every one.
	Include func(exp string) bool
	// Breakdown measures the pulp-4t configuration with cycle attribution
	// and prints the stall-breakdown table first.
	Breakdown bool
	// Fig5bKernel names the kernel of Fig. 5b ("" = matmul).
	Fig5bKernel string
}

// RenderCampaign runs the selected experiments of the evaluation on suite
// and writes one titled section per experiment to w, in the order
// `hetexp -exp all` prints them. Every experiment needs the measure
// matrix; the ablations add the extension, bank and scaling studies. The
// union of these plans goes through one run call, after a Fig5bKernel
// outside the suite has been rejected, and the results are then folded
// and rendered. The ablations pick their kernels by suite position, as
// laid out by kernels.PaperSuite and SmallSuite: matmul first, cnn
// eighth, hog last. The sensor ablation's camera frame is sized to the
// hog kernel's input.
func RenderCampaign(w io.Writer, run Runner, suite []*kernels.Instance, opts CampaignOptions) error {
	include := make(map[string]bool, len(Experiments))
	for _, exp := range Experiments {
		include[exp] = opts.Include == nil || opts.Include(exp)
	}
	var fig5b *kernels.Instance
	if include["fig5b"] {
		name := cmp.Or(opts.Fig5bKernel, "matmul")
		i := slices.IndexFunc(suite, func(k *kernels.Instance) bool { return k.Name == name })
		if i < 0 {
			return fmt.Errorf("kernel %q not in suite", name)
		}
		fig5b = suite[i]
	}
	measure, err := measurePoints(suite, opts.Breakdown)
	if err != nil {
		return err
	}
	var ext, banks, scaleMM, scaleCNN []Point
	if include["ablate"] {
		ext, banks = extPoints(suite), bankPoints(suite[0])
		scaleMM, scaleCNN = scalingPoints(suite[0]), scalingPoints(suite[7])
	}
	raws, err := run(slices.Concat(measure, ext, banks, scaleMM, scaleCNN))
	if err != nil {
		return err
	}
	// next hands out the results of each plan, in run order.
	next := func(pts []Point) []json.RawMessage {
		r := raws[:len(pts)]
		raws = raws[len(pts):]
		return r
	}
	// Every section ends in a blank line, written before the next title
	// and after the last section.
	sep := ""
	section := func(title string) {
		fmt.Fprintf(w, "%s== %s ==\n", sep, title)
		sep = "\n"
	}
	m, err := foldMeasure(measure, next(measure))
	if err != nil {
		return err
	}

	if opts.Breakdown {
		section("Stall breakdown: pulp-4t cycle attribution (beyond paper)")
		rows, err := m.BreakdownTable()
		if err != nil {
			return err
		}
		RenderBreakdown(w, rows)
	}
	if include["table1"] {
		section("Table I: benchmark summary")
		RenderTable1(w, m.Table1())
	}
	if include["fig3"] {
		section("Figure 3: energy efficiency on matmul")
		pts, err := m.Figure3()
		if err != nil {
			return err
		}
		RenderFigure3(w, pts)
	}
	if include["fig4"] {
		section("Figure 4: architectural and parallel speedup")
		RenderFigure4(w, m.Figure4())
	}
	if include["fig5a"] {
		section("Figure 5a: speedup within the 10 mW envelope")
		RenderFigure5a(w, m.Figure5a())
	}
	if include["ablate"] {
		mm, hog := suite[0], suite[len(suite)-1]
		section("Ablation: per-extension contribution (beyond paper)")
		rows, err := foldExt(ext, next(ext))
		if err != nil {
			return err
		}
		RenderExtensionAblation(w, rows)

		section("Ablation: TCDM bank count (beyond paper)")
		bpts, err := decode[BankSweepPoint](banks, next(banks))
		if err != nil {
			return err
		}
		RenderBankSweep(w, mm.Name, bpts)

		section("Ablation: decoupled link clock (Section V)")
		la, err := LinkAblationWith(nil, mm, m)
		if err != nil {
			return err
		}
		RenderLinkAblation(w, mm.Name, la)

		section("Ablation: 8-core cluster scaling (beyond paper)")
		for _, pts := range [][]Point{scaleMM, scaleCNN} {
			sc, err := foldScaling(pts, next(pts))
			if err != nil {
				return err
			}
			RenderScalingStudy(w, pts[0].k.Name, sc)
		}

		section("Ablation: sensor data path (Section V)")
		cam := sensor.QVGACamera()
		cam.SampleBytes = m.ByK[hog.Name].InBytes
		sa, err := SensorAblationWith(nil, hog, m, cam, 8e6)
		if err != nil {
			return err
		}
		RenderSensorAblation(w, hog.Name, sa)
	}
	if fig5b != nil {
		section("Figure 5b: offload-cost amortization")
		series, err := Figure5bWith(nil, fig5b, m)
		if err != nil {
			return err
		}
		RenderFigure5b(w, fig5b.Name, series)
	}
	fmt.Fprint(w, sep)
	return nil
}
