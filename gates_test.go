//go:build gates

// The perf-gate table: every performance bound the project holds itself
// to, each row next to the benchmark it reads and the reason for its
// number. Run it with
//
//	make gates    # go test -tags gates -count=1 -v -run TestGates .
//
// TestGates runs every simulator-throughput variant of bench_test.go in
// three rounds through testing.Benchmark in this one process (so both
// sides of a ratio see the same machine state), each round with one
// cold-then-warm pass of the reduced campaign, and judges each row on the
// best run — the one with the lowest ns/op, kept whole — so the gates
// judge the machine's capability rather than its noise floor while a
// genuine regression still moves every run. It logs one line per row and fails on any breach; it
// writes no file. Bit-identical execution is gated separately, by the
// differential tests in internal/cluster, internal/core and
// internal/paper.
package hetsim_test

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sweep"
)

// runs holds one variant's three results, best (lowest ns/op) first.
type runs []testing.BenchmarkResult

// figure reads one number from the runs of every variant; pick selects
// the run (0 = best, 2 = worst) of each variant it reads.
type figure func(r map[string]runs, pick int) float64

// msim is a variant's simulator throughput.
func msim(variant string) figure {
	return func(r map[string]runs, pick int) float64 { return r[variant][pick].Extra["Msimcycles/s"] }
}

// ratio is num over den.
func ratio(num, den figure) figure {
	return func(r map[string]runs, pick int) float64 { return num(r, pick) / den(r, pick) }
}

// maxAllocs is the most allocs/op of any variant under prefix; +Inf when
// none matches, so a renamed benchmark cannot silently drop its gate.
func maxAllocs(prefix string) figure {
	return func(r map[string]runs, pick int) float64 {
		most, seen := 0.0, false
		for name, rs := range r {
			if strings.HasPrefix(name, prefix) {
				most, seen = max(most, float64(rs[pick].AllocsPerOp())), true
			}
		}
		if !seen {
			return math.Inf(1)
		}
		return most
	}
}

// warmFrac is the warm campaign's wall clock over the cold one-worker one.
func warmFrac(r map[string]runs, pick int) float64 {
	return r[campaignVariant][pick].Extra["warm/cold-j1"]
}

// obsBaseline is the plain simulator throughput (Msimcycles/s, best of 3)
// re-measured at the commit before the fused tiers, because the runner
// drifted from the 13.70 recorded a PR earlier: the same HEAD measured
// 11.86, with ±20% swings between runs minutes apart.
const obsBaseline = 11.86

// gates is the perf-gate table. A row with op "" is reported, not gated.
var gates = []struct {
	name  string
	fig   figure
	op    string // ">=", "<=" or ""
	bound float64
	why   string
}{
	{"SimulatorThroughput, obs off, 1% loss", msim("SimulatorThroughput"), ">=", obsBaseline * 0.99,
		"detached observability costs nothing: the plain simulator may lose at most 1% against obsBaseline"},
	{"SimulatorThroughput, 15% loss", msim("SimulatorThroughput"), ">=", obsBaseline * 0.85,
		"the fused tiers must not slow the stepped offload path: a noise-tolerant 15% bound on the same baseline"},
	{"SimulatorThroughput floor", msim("SimulatorThroughput"), ">=", 9.5,
		"absolute backstop under obsBaseline"},
	{"SimulatorThroughputBlocks/super", msim("SimulatorThroughputBlocks/super"), ">=", 40,
		"fused execution floor on the pulp-4t/pulp-1t/m4-host straight-line mix: the block-compilation " +
			"acceptance bar, also >= 2.5x the stepped-era baseline (13.70 -> 34.25)"},
	{"Branchy super/stepped, pulp-1c",
		ratio(msim("SimulatorThroughputBranchy/super/pulp-1c"), msim("SimulatorThroughputBranchy/stepped/pulp-1c")), ">=", 2.94,
		"the branch-heavy acceptance subset (full-program trace chasing). Each Branchy floor is the lowest of six " +
			"make gates runs on a 2-core runner less 10%, taken once the stepped tier began running its non-memory ops " +
			"through the fused executor's switch (a slower denominator that would otherwise let a fused regression of " +
			"the same size pass), and never below the floor it replaced: pulp-1c read 3.26–4.33 (was >= 2.64, the " +
			"parent read 2.44–2.92), so a fused tier that fell back to the parent's ratio fails"},
	{"Branchy super/stepped, pulp-4c",
		ratio(msim("SimulatorThroughputBranchy/super/pulp-4c"), msim("SimulatorThroughputBranchy/stepped/pulp-4c")), ">=", 1.77,
		"the 4-core branchy shape, where optimistic windows run whole loop nests of every core: six runs read " +
			"1.97–2.41x (was >= 1.13; the parent read 1.48–1.59), derived like the pulp-1c floor"},
	{"Branchy super/stepped, m4",
		ratio(msim("SimulatorThroughputBranchy/super/m4"), msim("SimulatorThroughputBranchy/stepped/m4")), ">=", 3.23,
		"no I$ and one core, so every run is a solo trace chase: six runs read 3.59–4.96x (was >= 2.56; the " +
			"parent read 2.93–3.09), derived like the pulp-1c floor"},
	{"Branchy allocs/op, every variant", maxAllocs("SimulatorThroughputBranchy/"), "<=", 0,
		"allocation-free steady state: clusters are built and programs compiled outside the timed loop"},
	{"Team super/stepped, pulp-4c",
		ratio(msim("SimulatorThroughputTeam/super"), msim("SimulatorThroughputTeam/stepped")), ">=", 2.0,
		"optimistic bank-disjoint windows on the paper-size matmul, cnn and hog at four threads: six make gates " +
			"runs on a 2-core runner read 2.48-3.24 (best of 3 each), so 2.0 is the lowest of them less a 20% " +
			"margin for the runner's swing; with windows disabled the same tree reads 0.92-1.05. Re-derived once the " +
			"stepped tier ran its non-memory ops through the fused executor: six runs read 2.18-3.71, whose lowest " +
			"less 10% (1.97) is under 2.0, so the bound stays"},
	{"Team allocs/op, every variant", maxAllocs("SimulatorThroughputTeam/"), "<=", 0,
		"allocation-free steady state on the team path: the window log is allocated at a cluster's first window, outside the timed loop"},
	{"small campaign warm/cold-j1", warmFrac, "<=", 0.05,
		"a rerun on a warm run cache must cost under 5% of the cold serial campaign"},
	{"obs-on overhead (1 - Obs/plain)",
		func(r map[string]runs, pick int) float64 {
			return 1 - msim("SimulatorThroughputObs")(r, pick)/msim("SimulatorThroughput")(r, pick)
		}, "", 0,
		"what attaching the cycle attribution and span timeline costs"},
	{"Blocks super/stepped mix",
		ratio(msim("SimulatorThroughputBlocks/super"), msim("SimulatorThroughputBlocks/stepped")), "", 0,
		"the fused-over-stepped ratio on the straight-line mix"},
}

// campaignVariant names the reduced-campaign pseudo-variant in the runs.
const campaignVariant = "SmallCampaign"

func TestGates(t *testing.T) {
	type variant struct {
		name string
		run  func(*testing.B)
	}
	variants := []variant{
		{"SimulatorThroughput", offloadThroughput(false)},
		{"SimulatorThroughputObs", offloadThroughput(true)},
	}
	for _, tier := range tiers {
		variants = append(variants, variant{"SimulatorThroughputBlocks/" + tier.name, mixThroughput(tier.stepped)})
	}
	for _, tier := range tiers {
		variants = append(variants, variant{"SimulatorThroughputTeam/" + tier.name, teamThroughput(tier.stepped)})
	}
	for _, tier := range tiers {
		for _, sh := range branchyShapes {
			variants = append(variants, variant{"SimulatorThroughputBranchy/" + tier.name + "/" + sh.name,
				branchyThroughput(sh, tier.stepped)})
		}
	}
	// Rounds run every variant once, so a slow scheduling window cannot
	// depress all three runs of one variant together.
	const reps = 3
	results := map[string]runs{}
	for range reps {
		for _, v := range variants {
			results[v.name] = append(results[v.name], testing.Benchmark(v.run))
		}
		results[campaignVariant] = append(results[campaignVariant], smallCampaignWarm(t))
	}
	for _, rs := range results {
		slices.SortFunc(rs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(a.NsPerOp(), b.NsPerOp()) })
	}

	env := fmt.Sprintf("GOMAXPROCS=%d %s", runtime.GOMAXPROCS(0), runtime.Version())
	for _, g := range gates {
		best, worst := g.fig(results, 0), g.fig(results, reps-1)
		verdict := "report"
		switch {
		case g.op == ">=" && best >= g.bound, g.op == "<=" && best <= g.bound:
			verdict = "ok"
		case g.op != "":
			verdict = "FAIL"
			t.Errorf("%s: best of %d is %.4g, bound %s %.4g (%s)", g.name, reps, best, g.op, g.bound, g.why)
		}
		bound := "-"
		if g.op != "" {
			bound = fmt.Sprintf("%s %.4g", g.op, g.bound)
		}
		t.Logf("%-36s %s  best %.4g  worst %.4g  bound %s  %s", g.name, env, best, worst, bound, verdict)
	}
}

// smallCampaignWarm times `hetexp -small -exp all` cold at one worker
// with no cache, fills a run cache untimed, then times the same campaign
// warm from that cache (which must simulate nothing). The result's
// ns/op is the warm wall clock; Extra carries warm over cold.
func smallCampaignWarm(t *testing.T) testing.BenchmarkResult {
	t0 := time.Now()
	runSmallSweep(t, sweep.New(sweep.Config{Workers: 1}))
	cold := time.Since(t0)

	dir := t.TempDir()
	fill, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runSmallSweep(t, sweep.New(sweep.Config{Workers: 4, Cache: fill}))
	cache, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.Config{Workers: 4, Cache: cache})
	t0 = time.Now()
	runSmallSweep(t, eng)
	warm := time.Since(t0)
	if st := eng.Stats(); st.Executed != 0 {
		t.Fatalf("warm campaign simulated %d jobs, want 0", st.Executed)
	}
	return testing.BenchmarkResult{N: 1, T: warm,
		Extra: map[string]float64{"warm/cold-j1": warm.Seconds() / cold.Seconds()}}
}

// runSmallSweep drives `hetexp -small -exp all` through one sweep engine:
// the whole reduced evaluation, every simulation as a job, rendered
// through the same paper.RenderCampaign call.
func runSmallSweep(t *testing.T, eng *sweep.Engine) {
	t.Helper()
	if err := paper.RenderCampaign(io.Discard, paper.LocalRunner(eng), kernels.SmallSuite(), paper.CampaignOptions{}); err != nil {
		t.Fatal(err)
	}
}
