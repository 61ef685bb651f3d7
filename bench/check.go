package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hetsim/internal/paper"
)

// goldenCampaignSHA256 is the SHA-256 of the full `hetexp -exp all`
// standard output at paper size. It is the same at -j 1 and -j 2 and on a
// warm cache; the in-process replica of the traced pass must match it too.
const goldenCampaignSHA256 = "b79aa95933924a0ebbc295412952a44aa4c1bd89c781d2838cf64955767c0eb9"

// goldenRemoteSHA256 is the SHA-256 of Table I and Figs. 3, 4 and 5a as
// renderRemote prints them from a remote measurement — byte for byte the
// standard output of `hetexp -remote URL -exp all`, which is also the
// first four sections of the local campaign output.
const goldenRemoteSHA256 = "2dd69236dbd0f64d821ecd63b91cecf0ccc7346d4e5d187aa1687cc0ee96c395"

// gate counts correctness checks. Every violation counts as a failure of
// the run; none aborts it.
type gate struct {
	attempted int
	failed    int
	failures  []string
}

// record counts one attempted operation and, when err is non-nil, its
// failure.
func (g *gate) record(what string, err error) {
	g.attempted++
	if err != nil {
		g.failed++
		// Keep the record bounded on a run where everything fails.
		if len(g.failures) < 20 {
			g.failures = append(g.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// add folds another gate's counts into g.
func (g *gate) add(o gate) {
	g.attempted += o.attempted
	g.failed += o.failed
	for _, f := range o.failures {
		if len(g.failures) < 20 {
			g.failures = append(g.failures, f)
		}
	}
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkOutput compares rendered output against a golden digest.
func checkOutput(out []byte, want string) error {
	if got := sha256Hex(out); got != want {
		return fmt.Errorf("output sha256 %s, want %s (%d bytes)", got, want, len(out))
	}
	return nil
}

// runStats is the part of hetexp's -stats-json file the gate reads.
type runStats struct {
	Sweep struct {
		Jobs      int
		Executed  int
		CacheHits int
	} `json:"sweep"`
}

// checkCampaign applies the gate to one hetexp campaign: the standard
// output must match the golden digest, a cold run must have simulated
// every job and a warm run none.
func checkCampaign(stdout, statsJSON []byte, cold bool) (runStats, error) {
	st, err := checkStats(statsJSON, cold)
	return st, errors.Join(checkOutput(stdout, goldenCampaignSHA256), err)
}

func checkStats(statsJSON []byte, cold bool) (runStats, error) {
	var st runStats
	if err := json.Unmarshal(statsJSON, &st); err != nil {
		return st, fmt.Errorf("reading -stats-json: %w", err)
	}
	if cold && (st.Sweep.Jobs == 0 || st.Sweep.Executed != st.Sweep.Jobs) {
		return st, fmt.Errorf("cold run simulated %d of %d jobs", st.Sweep.Executed, st.Sweep.Jobs)
	}
	if !cold && st.Sweep.Executed != 0 {
		return st, fmt.Errorf("warm run simulated %d of %d jobs", st.Sweep.Executed, st.Sweep.Jobs)
	}
	return st, nil
}

// renderRemote prints what `hetexp -remote URL -exp all` prints: the
// measurement experiments (the ablations and Fig. 5b simulate extra local
// points and are skipped remotely), with hetexp's headers and spacing.
func renderRemote(w io.Writer, m *paper.Measurements) error {
	fmt.Fprintln(w, "== Table I: benchmark summary ==")
	paper.RenderTable1(w, m.Table1())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Figure 3: energy efficiency on matmul ==")
	pts, err := m.Figure3()
	if err != nil {
		return err
	}
	paper.RenderFigure3(w, pts)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Figure 4: architectural and parallel speedup ==")
	paper.RenderFigure4(w, m.Figure4())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== Figure 5a: speedup within the 10 mW envelope ==")
	paper.RenderFigure5a(w, m.Figure5a())
	fmt.Fprintln(w)
	return nil
}
