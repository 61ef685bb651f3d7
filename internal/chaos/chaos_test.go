package chaos

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/fault"
	"hetsim/internal/kernels"
	"hetsim/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/drill.golden")

// smallMatmul is the reduced-size matmul of the small suite.
func smallMatmul(t *testing.T) *kernels.Instance {
	t.Helper()
	for _, k := range kernels.SmallSuite() {
		if k.Name == "matmul" {
			return k
		}
	}
	t.Fatal("no matmul in the small suite")
	return nil
}

// smallCampaign is a fast, fault-heavy campaign used across the tests:
// the reduced matmul with rates high enough that every verdict class has
// a chance to appear within a few trials.
func smallCampaign(t *testing.T) Campaign {
	t.Helper()
	return Campaign{
		Kernels: []*kernels.Instance{smallMatmul(t)},
		Classes: fault.MemClasses,
		Rates:   []float64{1e-3},
		Trials:  4,
		Seed:    1,
	}
}

// TestDrillGolden renders the campaign of `make chaos-drill` — the small
// matmul, all four memory fault classes, rate 2e-3, six trials, seed 1 —
// without a cache and compares the report with testdata/drill.golden.
// The report is deterministic, so any diff is a real change in the fault
// model, the recovery runtime or the simulator. The model fingerprint
// (internal/paper) hashes this file, so after an intentional change run
// `go test ./internal/chaos -update`, then `go test ./internal/paper
// -update`.
func TestDrillGolden(t *testing.T) {
	c := Campaign{
		Kernels: []*kernels.Instance{smallMatmul(t)},
		Classes: fault.MemClasses,
		Rates:   []float64{2e-3},
		Trials:  6,
		Seed:    1,
	}
	rep, err := c.Run(sweep.New(sweep.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, rep)
	path := filepath.Join("testdata", "drill.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated: %d bytes", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("drill report changed; if intentional, run go test ./internal/chaos -update, then go test ./internal/paper -update.\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

// TestFixedSystemBuilds checks that the one system every trial runs on is
// a valid configuration.
func TestFixedSystemBuilds(t *testing.T) {
	if _, err := core.NewSystem(system); err != nil {
		t.Fatalf("the fixed chaos system is invalid: %v", err)
	}
}

// TestCampaignDeterministic is the tentpole acceptance check: the same
// campaign spec renders a byte-identical report at any worker count.
func TestCampaignDeterministic(t *testing.T) {
	render := func(workers int) []byte {
		rep, err := smallCampaign(t).Run(sweep.New(sweep.Config{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Render(&buf, rep)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("report differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
}

// TestAllTrialsClassified checks the taxonomy is total: every trial of a
// fault-heavy campaign carries a known verdict, faulted trials are never
// labelled clean, and clean trials never report faults.
func TestAllTrialsClassified(t *testing.T) {
	c := smallCampaign(t)
	c.Trials = 6
	rep, err := c.Run(sweep.New(sweep.Config{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	known := map[Verdict]bool{}
	for _, v := range Verdicts {
		known[v] = true
	}
	total, faulted := 0, 0
	for _, cell := range rep.Cells {
		if len(cell.Trials) != c.Trials {
			t.Fatalf("cell %s/%s has %d trials, want %d", cell.Kernel, cell.Class, len(cell.Trials), c.Trials)
		}
		for i, tr := range cell.Trials {
			total++
			if !known[tr.Verdict] {
				t.Fatalf("trial %d in %s has unknown verdict %q", i, cell.Class, tr.Verdict)
			}
			if tr.Injected > 0 {
				faulted++
				if tr.Verdict == VerdictClean {
					t.Fatalf("trial %d in %s injected %d faults but is classified clean", i, cell.Class, tr.Injected)
				}
			} else if tr.Verdict != VerdictClean {
				t.Fatalf("trial %d in %s injected nothing but is %q", i, cell.Class, tr.Verdict)
			}
		}
	}
	if want := len(c.Classes) * len(c.Rates) * c.Trials; total != want {
		t.Fatalf("classified %d trials, want %d", total, want)
	}
	if faulted == 0 {
		t.Fatal("campaign injected no faults at rate 1e-3; the test exercises nothing")
	}
}

// TestZeroRateCampaignIsAllClean pins the nil-behaviour contract: a rate-0
// campaign must classify every trial clean with correct output and no
// recovery overhead.
func TestZeroRateCampaignIsAllClean(t *testing.T) {
	c := smallCampaign(t)
	c.Rates = []float64{0}
	c.Trials = 2
	rep, err := c.Run(sweep.New(sweep.Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range rep.Cells {
		for _, tr := range cell.Trials {
			if tr.Verdict != VerdictClean || !tr.OutputOK || tr.Injected != 0 ||
				tr.RecoveryCycles != 0 || tr.RecoveryEnergyJ != 0 {
				t.Fatalf("rate-0 trial not pristine: %+v", tr)
			}
		}
	}
}

// TestCancelledCampaignReturnsPartial checks the SIGINT contract: a
// cancelled engine yields the completed prefix marked Partial plus the
// cancellation error, and the renderer flags it.
func TestCancelledCampaignReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := sweep.New(sweep.Config{Workers: 2, Context: ctx})
	rep, err := smallCampaign(t).Run(eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("cancelled campaign must return a partial report, got %+v", rep)
	}
	var buf bytes.Buffer
	Render(&buf, rep)
	if !strings.Contains(buf.String(), "PARTIAL") {
		t.Fatal("rendered partial report is not marked PARTIAL")
	}
	if err := rep.Drill(0); err == nil {
		t.Fatal("Drill must reject a partial report")
	}
}

// TestCampaignCacheRoundTrip checks that trials memoized in the run cache
// reproduce the fresh report byte for byte, and that the warm campaign
// simulates nothing.
func TestCampaignCacheRoundTrip(t *testing.T) {
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, sweep.Stats) {
		eng := sweep.New(sweep.Config{Workers: 4, Cache: cache})
		rep, err := smallCampaign(t).Run(eng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Render(&buf, rep)
		return buf.Bytes(), eng.Stats()
	}
	cold, _ := run()
	warm, st := run()
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm-cache report differs from the fresh one")
	}
	if st.Executed != 0 || st.CacheHits != st.Jobs {
		t.Fatalf("warm campaign simulated %d of %d trials (%d cache hits), want 0", st.Executed, st.Jobs, st.CacheHits)
	}
}

func TestDrill(t *testing.T) {
	mk := func(class string, verdicts ...Verdict) Cell {
		cell := Cell{Kernel: "k", Class: class, Rate: 1e-3}
		for _, v := range verdicts {
			cell.Trials = append(cell.Trials, Trial{Verdict: v})
		}
		return cell
	}
	rep := &Report{Cells: []Cell{
		mk("tcdm-flip", VerdictClean, VerdictDetected),
		mk("l2-flip", VerdictDetected, VerdictRecov),
	}}
	if err := rep.Drill(1); err != nil {
		t.Fatalf("healthy report failed the drill: %v", err)
	}
	if err := rep.Drill(2); err == nil {
		t.Fatal("drill must fail when a class is short of detections")
	}
	rep.Cells = append(rep.Cells, mk("dma-corrupt", Verdict("???")))
	if err := rep.Drill(0); err == nil || !strings.Contains(err.Error(), "unclassified") {
		t.Fatalf("drill must reject unclassified trials, got %v", err)
	}
}

func TestCampaignRejectsBadSpecs(t *testing.T) {
	eng := sweep.New(sweep.Config{})
	if _, err := (Campaign{}).Run(eng); err == nil {
		t.Fatal("empty campaign must be rejected")
	}
	c := smallCampaign(t)
	c.Rates = []float64{1.5}
	if _, err := c.Run(eng); err == nil {
		t.Fatal("out-of-range rate must be rejected")
	}
}
