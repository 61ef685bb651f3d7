package paper

import (
	"bytes"
	"strings"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/obs"
	"hetsim/internal/sweep"
)

// TestObservedMeasureIsByteIdentical completes the observability
// differential at the paper layer: measuring with attribution attached
// must render every shared table and figure byte-identically to the plain
// measurement, and the breakdown it additionally produces must satisfy
// the exactness invariant (enforced inside BreakdownTable) and render one
// row per kernel.
func TestObservedMeasureIsByteIdentical(t *testing.T) {
	plain := smallMeasure(t)
	observed, err := measure(LocalRunner(sweep.New(sweep.Config{})), kernels.SmallSuite(), true)
	if err != nil {
		t.Fatal(err)
	}

	render := func(m *Measurements) string {
		var buf bytes.Buffer
		RenderTable1(&buf, m.Table1())
		RenderFigure4(&buf, m.Figure4())
		RenderFigure5a(&buf, m.Figure5a())
		return buf.String()
	}
	if p, o := render(plain), render(observed); p != o {
		t.Fatalf("observed measurement rendered differently:\n--- plain ---\n%s\n--- observed ---\n%s", p, o)
	}

	rows, err := observed.BreakdownTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(observed.Suite) {
		t.Fatalf("breakdown rows: %d, want %d", len(rows), len(observed.Suite))
	}
	for _, r := range rows {
		if r.Classes[obs.Issue] == 0 {
			t.Errorf("%s: no issue cycles attributed", r.Name)
		}
		// Row sums are re-checked here so the invariant is pinned by a test,
		// not only by BreakdownTable's own error path.
		if r.Total() != uint64(r.Cores)*r.Cycles {
			t.Errorf("%s: classes sum to %d, want %d", r.Name, r.Total(), uint64(r.Cores)*r.Cycles)
		}
	}

	var buf bytes.Buffer
	RenderBreakdown(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Benchmark", "issue", "sync", "matmul"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered breakdown lacks %q:\n%s", want, out)
		}
	}

	// The plain measurement must refuse to build a breakdown.
	if _, err := plain.BreakdownTable(); err == nil {
		t.Fatal("plain measurement produced a breakdown without attribution")
	}
}
