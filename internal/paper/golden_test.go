package paper

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment golden files")

// TestFullReproductionGolden renders the whole evaluation at the paper's
// sizes — Table I, Figs. 3, 4, 5a and 5b and all five ablations —
// through the same RenderCampaign call `hetexp -exp all` makes, and
// compares the bytes against the recorded golden file, which is exactly
// that command's stdout. The simulation is deterministic, so any diff is
// a real change in reproduced results. Run with -update to re-record
// after an intentional model change.
//
// Skipped under -short (it simulates the full-size suite, ~2 s on two
// cores).
func TestFullReproductionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size suite")
	}
	eng := sweep.New(sweep.Config{})
	m, err := MeasureWith(eng, kernels.PaperSuite())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderCampaign(&buf, eng, m, CampaignOptions{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "full_reproduction.golden", buf.Bytes())
}

// TestSmallCampaignGolden renders every section of `hetexp -small -exp all
// -breakdown` — the stall breakdown, Table I, Figs. 3, 4, 5a and 5b and
// all five ablations — through the same RenderCampaign call hetexp makes,
// and compares the bytes against the recorded golden file. It also pins
// Experiments (the names `hetexp -exp` accepts) to the sections
// RenderCampaign asks about, in order.
func TestSmallCampaignGolden(t *testing.T) {
	eng := sweep.New(sweep.Config{})
	m, err := MeasureObservedWith(eng, kernels.SmallSuite())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var asked []string
	include := func(exp string) bool {
		asked = append(asked, exp)
		return true
	}
	if err := RenderCampaign(&buf, eng, m, CampaignOptions{Include: include, Breakdown: true}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(asked, Experiments) {
		t.Errorf("RenderCampaign asks about %v, Experiments lists %v", asked, Experiments)
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
