package paper

import (
	"bytes"
	"strings"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// smallMeasure measures the reduced suite once per test binary.
var smallCache *Measurements

func smallMeasure(t *testing.T) *Measurements {
	t.Helper()
	if smallCache != nil {
		return smallCache
	}
	// The small suite keeps simulation time low; "matmul" must be present
	// because Figure3 keys on it.
	m, err := MeasureWith(sweep.New(sweep.Config{}), kernels.SmallSuite())
	if err != nil {
		t.Fatal(err)
	}
	smallCache = m
	return m
}

func TestMeasurementsComplete(t *testing.T) {
	m := smallMeasure(t)
	if len(m.ByK) != len(m.Suite) {
		t.Fatalf("measured %d of %d kernels", len(m.ByK), len(m.Suite))
	}
	for name, km := range m.ByK {
		for _, key := range []configKey{cfgPlain, cfgM3, cfgM4, cfgPULP1, cfgPULP2, cfgPULP4} {
			if km.Cycles[key] == 0 {
				t.Errorf("%s: no cycles for %s", name, key)
			}
		}
		if km.RISCOps == 0 || km.BinBytes == 0 {
			t.Errorf("%s: missing ops/binary size", name)
		}
		if km.Activity.CoreRun <= 0 {
			t.Errorf("%s: empty activity", name)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	m := smallMeasure(t)
	rows := m.Table1()
	if len(rows) != len(m.Suite) {
		t.Fatalf("table rows: %d", len(rows))
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	for _, want := range []string{"matmul", "strassen", "svm (RBF)", "cnn (approx)", "hog", "RISC ops"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	m := smallMeasure(t)
	pts, err := m.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	var bestPULP, bestMCU, apollo float64
	for _, p := range pts {
		switch {
		case p.Kind == "pulp":
			if p.GOPSperW > bestPULP {
				bestPULP = p.GOPSperW
			}
		case p.Platform == "Ambiq Apollo":
			apollo = p.GOPSperW
		default:
			if p.GOPSperW > bestMCU {
				bestMCU = p.GOPSperW
			}
		}
	}
	// The paper's qualitative claims: PULP is at least an order of
	// magnitude above every MCU; the Apollo is the MCU outlier.
	if bestPULP < 10*bestMCU {
		t.Errorf("PULP efficiency %.1f not >> MCU efficiency %.1f", bestPULP, bestMCU)
	}
	if apollo <= bestMCU {
		t.Errorf("Apollo (%.1f) should beat the other MCUs (%.1f)", apollo, bestMCU)
	}
	var buf bytes.Buffer
	RenderFigure3(&buf, pts)
	if !strings.Contains(buf.String(), "PULP") || !strings.Contains(buf.String(), "GOPS/W") {
		t.Error("figure 3 rendering incomplete")
	}
}

func TestFigure4Shape(t *testing.T) {
	m := smallMeasure(t)
	rows := m.Figure4()
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Integer benchmarks must show a clear architectural speedup...
	if byName["matmul"].ArchVsM4 < 1.8 {
		t.Errorf("matmul arch speedup %.2f too low", byName["matmul"].ArchVsM4)
	}
	// ...the fixed-point family a smaller one...
	if f := byName["matmul (fixed)"].ArchVsM4; f < 1.0 || f >= byName["matmul"].ArchVsM4 {
		t.Errorf("fixed-point arch speedup %.2f out of band", f)
	}
	// ...and hog the characteristic slowdown.
	if h := byName["hog"].ArchVsM4; h >= 1.0 {
		t.Errorf("hog should be below 1x, got %.2f", h)
	}
	for _, r := range rows {
		if r.Par4 < 1.0 || r.Par4 > 4.05 {
			t.Errorf("%s: 4-core speedup %.2f out of range", r.Name, r.Par4)
		}
		if r.Par2 < 1.0 || r.Par2 > 2.05 {
			t.Errorf("%s: 2-core speedup %.2f out of range", r.Name, r.Par2)
		}
	}
	ov := OMPOverhead(rows)
	if ov < 0 || ov > 0.45 {
		t.Errorf("OpenMP overhead %.2f implausible", ov)
	}
}

func TestFigure5aShape(t *testing.T) {
	m := smallMeasure(t)
	rows := m.Figure5a()
	for _, r := range rows {
		if len(r.Entries) != len(MCUFreqsHz) {
			t.Fatalf("%s: %d entries", r.Name, len(r.Entries))
		}
		// At 32 MHz the MCU uses the whole envelope: speedup 1.
		if s := r.Entries[0].Speedup; s < 0.99 || s > 1.01 {
			t.Errorf("%s: speedup at 32 MHz = %.2f, want 1", r.Name, s)
		}
		// Speedup must grow monotonically as the MCU slows down and the
		// accelerator gets the freed budget.
		for i := 1; i < len(r.Entries); i++ {
			if r.Entries[i].Speedup+1e-9 < r.Entries[i-1].Speedup {
				t.Errorf("%s: speedup not monotone at %v MHz", r.Name, r.Entries[i].MCUFreqHz/1e6)
			}
		}
		// The slowest-MCU point gives the accelerator nearly the whole
		// envelope; every kernel must show a large speedup there.
		if last := r.Entries[len(r.Entries)-1]; last.Speedup < 3 {
			t.Errorf("%s: best speedup only %.1fx", r.Name, last.Speedup)
		}
		// Beyond-envelope bars: MCU-only scaling.
		if len(r.Beyond) != len(BeyondFreqsHz) || r.Beyond[0].Speedup != 1.5 {
			t.Errorf("%s: beyond-envelope bars wrong: %+v", r.Name, r.Beyond)
		}
	}
	var buf bytes.Buffer
	RenderFigure5a(&buf, rows)
	if !strings.Contains(buf.String(), "10 mW envelope") {
		t.Error("figure 5a rendering incomplete")
	}
}

func TestFigure5bShape(t *testing.T) {
	m := smallMeasure(t)
	k := m.Suite[0] // small matmul
	series, err := Figure5bWith(nil, k, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig5bMCUFreqsHz) {
		t.Fatalf("series: %d", len(series))
	}
	for _, s := range series {
		if len(s.Eff) != len(Fig5bIterations) || len(s.EffDB) != len(Fig5bIterations) {
			t.Fatalf("missing points in series @%v", s.MCUFreqHz)
		}
		for i := range s.Eff {
			if s.Eff[i] <= 0 || s.Eff[i] > 1 || s.EffDB[i] <= 0 || s.EffDB[i] > 1 {
				t.Errorf("efficiency out of (0,1] at %v MHz, n=%d", s.MCUFreqHz/1e6, Fig5bIterations[i])
			}
			if s.EffDB[i]+1e-9 < s.Eff[i] {
				t.Errorf("double buffering must not hurt (%v MHz, n=%d)", s.MCUFreqHz/1e6, Fig5bIterations[i])
			}
			if i > 0 && s.Eff[i]+1e-9 < s.Eff[i-1] {
				t.Errorf("efficiency must be monotone in iterations (%v MHz)", s.MCUFreqHz/1e6)
			}
		}
	}
	var buf bytes.Buffer
	RenderFigure5b(&buf, k.Name, series)
	if !strings.Contains(buf.String(), "double buffering") {
		t.Error("figure 5b rendering incomplete")
	}
}

func TestExtensionAblationShape(t *testing.T) {
	m := smallMeasure(t)
	rows, err := ExtensionAblationWith(sweep.New(sweep.Config{}), m.Suite[:4]) // the linear-algebra group
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, r := range rows {
		if r.FullCycles == 0 {
			t.Fatalf("%s: no cycles", r.Name)
		}
		for i, s := range r.Slowdown {
			if s < 0.999 {
				t.Errorf("%s %s: disabling a feature cannot speed things up (%.3f)",
					r.Name, ExtVariants[i].Name, s)
			}
		}
		byName[r.Name] = r.Slowdown
	}
	// matmul char leans on SIMD (index 0) and HW loops (index 1).
	if byName["matmul"][0] < 1.3 || byName["matmul"][1] < 1.2 {
		t.Errorf("matmul should rely on SIMD and HW loops: %v", byName["matmul"])
	}
	// Fixed-point matmul cannot use SIMD: ablating it is free.
	if byName["matmul (fixed)"][0] > 1.01 {
		t.Errorf("fixed matmul must not depend on SIMD: %v", byName["matmul (fixed)"])
	}
}

func TestBankSweepShape(t *testing.T) {
	m := smallMeasure(t)
	pts, err := BankSweepWith(sweep.New(sweep.Config{}), m.Suite[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points: %d", len(pts))
	}
	// A single bank serializes four cores; eight banks must be faster.
	var one, eight uint64
	for _, p := range pts {
		if p.Banks == 1 {
			one = p.Cycles
		}
		if p.Banks == 8 {
			eight = p.Cycles
		}
	}
	if one <= eight {
		t.Errorf("1 bank (%d cyc) should be slower than 8 banks (%d cyc)", one, eight)
	}
}

func TestLinkAblationShape(t *testing.T) {
	m := smallMeasure(t)
	pts, err := LinkAblationWith(nil, m.Suite[0], m)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts)%2 != 0 || len(pts) == 0 {
		t.Fatalf("points: %d", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		tied, dec := pts[i], pts[i+1]
		if tied.Decoupled || !dec.Decoupled {
			t.Fatal("ordering wrong")
		}
		if dec.Efficiency <= tied.Efficiency {
			t.Errorf("decoupled link must help at %.0f MHz: %.3f vs %.3f",
				tied.MCUFreqHz/1e6, dec.Efficiency, tied.Efficiency)
		}
	}
}

func TestSensorAblationShape(t *testing.T) {
	m := smallMeasure(t)
	hogK := m.Suite[len(m.Suite)-1]
	cam := sensor.QVGACamera()
	cam.SampleBytes = 32 * 32
	pts, err := SensorAblationWith(nil, hogK, m, cam, 8e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	host, direct := pts[0], pts[1]
	if direct.PerIterTime > host.PerIterTime {
		t.Errorf("direct path must not be slower: %.3f vs %.3f ms",
			direct.PerIterTime*1e3, host.PerIterTime*1e3)
	}
	if direct.EnergyPerIt > host.EnergyPerIt {
		t.Errorf("direct path must not cost more energy")
	}
}

func TestScalingStudyShape(t *testing.T) {
	m := smallMeasure(t)
	pts, err := ScalingStudyWith(sweep.New(sweep.Config{}), m.Suite[0]) // small matmul
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || pts[0].Threads != 1 || pts[len(pts)-1].Threads != 8 {
		t.Fatalf("points: %+v", pts)
	}
	if pts[0].Speedup != 1 {
		t.Errorf("baseline speedup %v", pts[0].Speedup)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup+0.05 < pts[i-1].Speedup {
			t.Errorf("scaling regressed at %d threads: %v -> %v",
				pts[i].Threads, pts[i-1].Speedup, pts[i].Speedup)
		}
		if pts[i].Speedup > float64(pts[i].Threads)+0.05 {
			t.Errorf("superlinear scaling at %d threads: %v", pts[i].Threads, pts[i].Speedup)
		}
	}
	// 8 threads must clearly beat 4 for matmul-sized work.
	if pts[4].Speedup < pts[2].Speedup*1.2 {
		t.Errorf("8 threads (%.2fx) should beat 4 (%.2fx)", pts[4].Speedup, pts[2].Speedup)
	}
}
