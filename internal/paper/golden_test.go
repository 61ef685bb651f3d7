package paper

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hetsim/internal/cluster"
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
	var buf bytes.Buffer
	if err := RenderCampaign(&buf, LocalRunner(sweep.New(sweep.Config{})), kernels.PaperSuite(), CampaignOptions{}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "full_reproduction.golden", buf.Bytes())
}

// TestSmallCampaignGolden renders every section of `hetexp -small -exp all
// -breakdown` — the stall breakdown, Table I, Figs. 3, 4, 5a and 5b and
// all five ablations — through the same RenderCampaign call hetexp makes,
// and compares the bytes against the recorded golden file. It also pins
// Experiments (the names `hetexp -exp` accepts) to the sections
// RenderCampaign asks about, in order, and the campaign to one sweep.Run:
// every progress event counts against the same total of 135 jobs. And it
// splits the cold campaign's simulated cycles by execution tier through
// cluster.WindowStats: at most 5% may run stepped or idle, and windows
// must cover at least 80% of the multi-core cycles (1.7% and 87.5% when
// recorded), so a fused tier that quietly switched off fails here.
func TestSmallCampaignGolden(t *testing.T) {
	totals := map[int]bool{}
	eng := sweep.New(sweep.Config{Progress: func(ev sweep.Event) { totals[ev.Total] = true }})
	var buf bytes.Buffer
	var asked []string
	include := func(exp string) bool {
		asked = append(asked, exp)
		return true
	}
	ws0 := cluster.WindowStats()
	if err := RenderCampaign(&buf, LocalRunner(eng), kernels.SmallSuite(), CampaignOptions{Include: include, Breakdown: true}); err != nil {
		t.Fatal(err)
	}
	ws := cluster.WindowStats()
	sim, multi := ws.SimCycles-ws0.SimCycles, ws.MultiCycles-ws0.MultiCycles
	stepped, windowed := ws.Stepped()-ws0.Stepped(), ws.Cycles-ws0.Cycles
	t.Logf("of %d simulated cycles %d stepped or idle; windows cover %d of %d multi-core cycles", sim, stepped, windowed, multi)
	if sim == 0 || float64(stepped) > 0.05*float64(sim) {
		t.Errorf("%d of %d simulated cycles stepped or idle, want <= 5%%", stepped, sim)
	}
	if multi == 0 || float64(windowed) < 0.80*float64(multi) {
		t.Errorf("windows cover %d of %d multi-core cycles, want >= 80%%", windowed, multi)
	}
	if len(totals) != 1 || !totals[135] || eng.Stats().Jobs != 135 {
		t.Errorf("campaign ran as sweeps totalling %v, %d jobs; want one sweep.Run of 135", totals, eng.Stats().Jobs)
	}
	if !slices.Equal(asked, Experiments) {
		t.Errorf("RenderCampaign asks about %v, Experiments lists %v", asked, Experiments)
	}
	checkGolden(t, "small_campaign.golden", buf.Bytes())
}

// TestModelFingerprint recomputes the model fingerprint from the goldens
// (the two above and internal/chaos's drill.golden) and the campaign's
// content keys and compares it with the checked-in
// testdata/model.fingerprint, which every campaign and chaos job key
// carries. A change to a program, an input, a cluster shape, the fault
// model or a golden result fails here until -update (after the golden
// tests above, in this file's order, and after `go test ./internal/chaos
// -update` has re-recorded the drill) re-records it; the new fingerprint
// sends every existing cache entry cold once.
func TestModelFingerprint(t *testing.T) {
	got := treeFingerprint(t)
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", "model.fingerprint"), []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("model fingerprint updated: %s", got)
		return
	}
	if got != ModelFingerprint() {
		t.Errorf("model fingerprint of the tree is %s, the binary carries %s: the model changed; run go test ./internal/chaos -update, then go test ./internal/paper -update to re-record it", got, ModelFingerprint())
	}
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
