package paper

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment golden files")

// TestFullReproductionGolden regenerates every table and figure at the
// paper's sizes and compares the rendered output byte-for-byte against the
// recorded golden file — the same content quoted in EXPERIMENTS.md. The
// simulation is deterministic, so any diff is a real change in reproduced
// results. Run with -update to re-record after an intentional model change.
//
// Skipped under -short (it simulates the full-size suite, ~10 s).
func TestFullReproductionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size suite")
	}
	m, err := Measure(kernels.PaperSuite())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, m.Table1())
	buf.WriteByte('\n')
	pts, err := m.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure3(&buf, pts)
	buf.WriteByte('\n')
	RenderFigure4(&buf, m.Figure4())
	buf.WriteByte('\n')
	RenderFigure5a(&buf, m.Figure5a())

	checkGolden(t, "full_reproduction.golden", buf.Bytes())
}

// TestSmallCampaignGolden renders every section of `hetexp -small -exp all
// -breakdown` — the stall breakdown, Table I, Figs. 3, 4, 5a and 5b and
// all five ablations — through the same RenderCampaign call hetexp makes,
// and compares the bytes against the recorded golden file.
func TestSmallCampaignGolden(t *testing.T) {
	eng := sweep.New(sweep.Config{})
	m, err := MeasureObservedWith(eng, kernels.SmallSuite())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderCampaign(&buf, eng, m, CampaignOptions{Breakdown: true}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "small_campaign.golden", buf.Bytes())
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated: %d bytes", name, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: output changed; run with -update if intentional.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}
