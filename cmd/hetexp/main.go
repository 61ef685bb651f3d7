// hetexp regenerates the tables and figures of the paper's evaluation.
//
// Usage:
//
//	hetexp [-exp table1|fig3|fig4|fig5a|ablate|fig5b|all] [-small] [-kernel name]
//	       [-j N] [-cache-dir DIR] [-no-cache] [-breakdown]
//	       [-remote URL] [-tenant NAME]
//	       [-scrub] [-stats-json FILE]
//
// Every cached campaign is crash-safe: each completed job is committed to
// the run cache (temp file, fsync, rename, directory fsync) as it
// finishes, so rerunning the same command after a kill — even SIGKILL —
// serves the committed jobs from the cache and simulates only the rest,
// and the rendered output is byte-identical to an uninterrupted run (the
// kill-9 crash drill in internal/chaos proves it). A -no-cache campaign
// keeps nothing to resume from. -scrub quarantines what a killed writer
// can leave in the cache (leftover temp files, torn entries) and exits.
//
// -remote routes the campaign through a hetsimd server instead of
// simulating locally: every point of every selected experiment goes out
// as one streamed /v1/batch submission — content-keyed points,
// deduplicated server-side, served from the shared cache, completions
// consumed as they land, a cut stream resumed by re-submitting only the
// incomplete points. Every experiment renders byte-identically to local
// execution. -chaos and -job-timeout are rejected under -remote
// (the server applies its own per-simulation budget, hetsimd
// -job-timeout). Locally the same campaign is one sweep over one engine,
// with one progress series; either way a -kernel outside the suite is
// rejected before any job runs.
//
// -small runs reduced-size kernels (seconds instead of minutes); the
// recorded EXPERIMENTS.md numbers come from the full-size run.
// -breakdown measures the pulp-4t configuration with cycle attribution
// attached (internal/obs) and prints the per-kernel stall-breakdown table
// in addition to the selected experiments; every shared number stays
// byte-identical to an unobserved run.
//
// Chaos mode runs the memory-fault reliability campaign instead of the
// paper figures:
//
//	hetexp -chaos [-chaos-kernels matmul,fir] [-chaos-classes tcdm,l2,parity,dma]
//	       [-chaos-rates 1e-5,1e-4] [-chaos-trials 8] [-chaos-seed 1]
//	       [-chaos-drill N]
//
// Every simulation goes through the internal/sweep engine: -j sets the
// worker count (default: one per CPU) and completed simulations are
// memoized in a content-addressed cache under -cache-dir, so a repeat
// invocation — or `-exp fig4` after `-exp all` — skips already-simulated
// points. Output is byte-identical at any -j and on warm cache. SIGINT
// cancels cleanly: in-flight jobs drain into the cache, a partial chaos
// report is rendered, profiles are flushed, and the exit code is
// non-zero; a second SIGINT force-exits with status 3 instead of waiting
// on a wedged drain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hetsim/internal/chaos"
	"hetsim/internal/cli"
	"hetsim/internal/cluster"
	"hetsim/internal/fault"
	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/prof"
	"hetsim/internal/serve"
	"hetsim/internal/sweep"
)

// stopProf flushes any active profiles; fatal calls it so a CPU profile
// of a failing run is still written. Replaced once prof.Start runs.
var stopProf = func() error { return nil }

func main() {
	exp := flag.String("exp", "all", "experiment: all or one of "+strings.Join(paper.Experiments, ", "))
	breakdown := flag.Bool("breakdown", false, "also measure with cycle attribution and print the pulp-4t stall-breakdown table")
	small := flag.Bool("small", false, "use reduced kernel sizes (fast smoke run)")
	kernel := flag.String("kernel", "matmul", "kernel for fig5b")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation workers")
	cacheDir := flag.String("cache-dir", cli.DefaultCacheDir(), "run-cache directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "disable the run cache")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation time budget (0 = unbounded)")
	remote := flag.String("remote", "", "route the campaign through a hetsimd server at this base URL")
	tenant := flag.String("tenant", "", "tenant name sent with -remote requests (rate limiting/quota identity)")
	scrub := flag.Bool("scrub", false, "scrub the run cache (quarantine corrupt entries and leftover temp files), report, and exit")
	statsJSON := flag.String("stats-json", "", "write machine-readable run stats (sweep/cache/reconnects/cycles/compile/sims) to this file on success")
	chaosOn := flag.Bool("chaos", false, "run the memory-fault chaos campaign instead of the paper figures")
	chaosKernels := flag.String("chaos-kernels", "matmul", "comma-separated kernels for the chaos campaign")
	chaosClasses := flag.String("chaos-classes", "", "comma-separated fault classes (default: tcdm,l2,parity,dma)")
	chaosRates := flag.String("chaos-rates", "", "comma-separated per-decision fault rates (default: 1e-5,1e-4)")
	chaosTrials := flag.Int("chaos-trials", 0, "trials per (kernel, class, rate) cell (default 8)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "campaign seed (default 1)")
	chaosE2E := flag.Int("chaos-e2e-retries", 0, "acceptance-check retry budget (default 1, negative disables)")
	chaosDrill := flag.Int("chaos-drill", 0, "assert >= N detected recoveries per fault class (implies -chaos)")
	flag.Parse()
	if *exp != "all" && !slices.Contains(paper.Experiments, *exp) {
		fatal(fmt.Errorf("unknown -exp %q: want all or one of %s", *exp, strings.Join(paper.Experiments, ", ")))
	}

	var err error
	stopProf, err = prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the engine: workers stop claiming, in-flight
	// simulations drain into the cache, partial results are rendered, and
	// the process exits non-zero through fatal. A second signal skips the
	// drain entirely and force-exits with a distinct status, so a wedged
	// job can't hold the process hostage.
	ctx, stopSig := cli.NotifyDrain("hetexp")
	defer stopSig()

	var cache *sweep.Cache
	if !*noCache && *cacheDir != "" {
		cache, err = sweep.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
	}
	if *scrub {
		if cache == nil {
			fatal(fmt.Errorf("-scrub needs a cache: set -cache-dir, drop -no-cache"))
		}
		rep, err := cache.Scrub()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scrub %s: %s\n", cache.Dir(), rep)
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}
	eng := sweep.New(sweep.Config{
		Workers:    *workers,
		Cache:      cache,
		Context:    ctx,
		JobTimeout: *jobTimeout,
		Progress: func(ev sweep.Event) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d jobs (%d cached)", ev.Done, ev.Total, ev.Cached)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})

	suite := paper.Registry(*small)

	if *chaosOn || *chaosDrill > 0 {
		if *remote != "" {
			fatal(fmt.Errorf("-chaos runs locally; it cannot be combined with -remote"))
		}
		cerr := runChaos(eng, suite, chaosOpts{
			kernels: *chaosKernels, classes: *chaosClasses, rates: *chaosRates,
			trials: *chaosTrials, seed: *chaosSeed, e2e: *chaosE2E,
			drill: *chaosDrill, out: os.Stdout,
		})
		sweepStats(eng)
		if cerr != nil {
			fatal(cerr)
		}
		if err := writeStatsJSON(*statsJSON, eng, 0); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}

	// The whole campaign is one plan: one sweep.Run locally, one streamed
	// /v1/batch submission under -remote (the server's worker pool provides
	// the overlap, reconnects re-submit only incomplete points).
	run, where := paper.LocalRunner(eng), fmt.Sprintf("%d workers", eng.Workers())
	client := &serve.Client{BaseURL: *remote, Tenant: *tenant}
	if *remote != "" {
		if *jobTimeout > 0 {
			fatal(fmt.Errorf("-job-timeout bounds local simulations; under -remote the server's budget applies (set hetsimd -job-timeout)"))
		}
		run, where = paper.RemoteRunner(ctx, client.RunBatch, *small), "via "+*remote+" (one streamed batch)"
	}
	announce := func(pts []paper.Point) ([]json.RawMessage, error) {
		fmt.Fprintf(os.Stderr, "measuring the campaign: %d points, %s...\n", len(pts), where)
		return run(pts)
	}
	if err := paper.RenderCampaign(os.Stdout, announce, suite, paper.CampaignOptions{
		Include:   func(name string) bool { return *exp == "all" || *exp == name },
		Breakdown: *breakdown, Fig5bKernel: *kernel,
	}); err != nil {
		fatal(err)
	}
	reconnects := client.Reconnects() // always 0 for a local campaign
	if reconnects > 0 {
		fmt.Fprintf(os.Stderr, "batch: %d reconnect(s) resumed the stream (only incomplete points re-submitted)\n",
			reconnects)
	}

	sweepStats(eng)
	if err := writeStatsJSON(*statsJSON, eng, reconnects); err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// statsOut is the -stats-json schema: the machine-readable mirror of the
// stderr summary, consumed by the crash drill (internal/chaos) to assert
// exact resume accounting.
type statsOut struct {
	Sweep      sweep.Stats       `json:"sweep"`
	Cache      *sweep.CacheStats `json:"cache,omitempty"`
	Reconnects uint64            `json:"reconnects,omitempty"`
	Cycles     tiers             `json:"cycles"`
	Compile    compileCounts     `json:"compile"`
	Sims       simCounts         `json:"sims"`
}

// simCounts is the -stats-json form of the sweep: line's sharing count:
// the simulations the process's campaign jobs ran, and the jobs that took
// another job's identical simulation instead (paper.SimStats).
type simCounts struct {
	Run    uint64 `json:"run"`
	Shared uint64 `json:"shared"`
}

func simStats() simCounts {
	run, shared := paper.SimStats()
	return simCounts{Run: run, Shared: shared}
}

// compileCounts is the -stats-json form of the compile: stderr line: the
// process's program compiles and compile-memo outcomes, and the kernel
// inputs it generated and program images it serialized.
type compileCounts struct {
	Images     uint64 `json:"images"`
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
	Inputs     uint64 `json:"inputs"`
	Encodes    uint64 `json:"encodes"`
}

func compileStats() compileCounts {
	ic, _, mh, mm := kernels.CompileStats()
	in, enc := kernels.ArtifactStats()
	return compileCounts{Images: ic, MemoHits: mh, MemoMisses: mm, Inputs: in, Encodes: enc}
}

// writeStatsJSON dumps the run's counters to path (no-op when empty).
func writeStatsJSON(path string, eng *sweep.Engine, reconnects uint64) error {
	if path == "" {
		return nil
	}
	out := statsOut{Sweep: eng.Stats(), Reconnects: reconnects, Cycles: tierSplit(cluster.WindowStats()), Compile: compileStats(), Sims: simStats()}
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		out.Cache = &cs
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sweepStats prints the engine's cumulative counters; it runs on success
// and on a cancelled or failed campaign alike, so a SIGINT still reports
// what was completed (and what a future warm run will skip). Of the
// simulated jobs, those that took another job's identical simulation
// (DESIGN.md §8) are counted apart.
func sweepStats(eng *sweep.Engine) {
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "sweep: %d jobs, %d simulated, %d served from cache (%d sharing another job's simulation)\n",
		st.Jobs, st.Executed, st.CacheHits, simStats().Shared)
	if c := eng.Cache(); c != nil {
		// Resident hits are served from memory (sweep.CacheStats); in
		// one campaign, whose keys are distinct, they stay 0.
		cs := c.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits (%d resident), %d misses, %d written\n",
			cs.Hits, cs.Resident, cs.Misses, cs.Writes)
		if cs.Corrupt > 0 {
			fmt.Fprintf(os.Stderr, "cache: %d unusable entr(ies) re-simulated\n", cs.Corrupt)
		}
		if cs.WriteFails > 0 {
			// Memoization silently degrading (full disk, bad permissions)
			// must be visible: every unwritten entry is a re-simulation on
			// the next run.
			fmt.Fprintf(os.Stderr, "cache: warning: %d result(s) could not be persisted to %s; the next run will re-simulate them\n",
				cs.WriteFails, c.Dir())
		}
	}
	// Compile-tier counters (DESIGN.md §12): program images predecoded,
	// the kernels.Compiled memo's split into reused vs freshly built
	// images, and the kernel inputs generated and program images
	// serialized, across the whole process (DESIGN.md §8: a warm campaign
	// generates and serializes only what composition offloads).
	cs := compileStats()
	fmt.Fprintf(os.Stderr, "compile: %d images, memo %d hit / %d miss, %d inputs generated, %d images encoded\n",
		cs.Images, cs.MemoHits, cs.MemoMisses, cs.Inputs, cs.Encodes)
	// Fused-run coverage (DESIGN.md §12–13): how much of the multi-core
	// simulation ran windowed, why windows were cut short, and how every
	// simulated cycle ran: solo, windowed, or stepped or idle.
	ws := cluster.WindowStats()
	t := tierSplit(ws)
	fmt.Fprintf(os.Stderr, "windows: %d committed, %d of %d multi-core cycles (%.1f%%), cut: bank %d, word %d, event %d; "+
		"of %d simulated cycles %.1f%% solo, %.1f%% windowed, %.1f%% stepped or idle\n",
		ws.Committed, ws.Cycles, ws.MultiCycles, pct(ws.Cycles, ws.MultiCycles), ws.CutBank, ws.CutWord, ws.CutEvent,
		ws.SimCycles, pct(t.Solo, ws.SimCycles), pct(t.Windowed, ws.SimCycles), pct(t.Stepped, ws.SimCycles))
}

// tiers is the -stats-json split of the process's simulated cycles by how
// they ran, from the cluster's scheduler counters.
type tiers struct {
	Solo     uint64 `json:"solo"`
	Windowed uint64 `json:"windowed"`
	Stepped  uint64 `json:"stepped_or_idle"`
}

func tierSplit(ws cluster.WindowCounters) tiers {
	return tiers{Solo: ws.SoloCycles, Windowed: ws.Cycles, Stepped: ws.Stepped()}
}

// pct is 100·n/d, 0 when d is 0.
func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// chaosOpts carries the -chaos-* flags into runChaos.
type chaosOpts struct {
	kernels string
	classes string
	rates   string
	trials  int
	seed    uint64
	e2e     int
	drill   int
	out     io.Writer
}

// runChaos parses the campaign spec against the active suite, runs it on
// the shared engine, and renders the reliability report. A cancelled
// campaign still renders its completed prefix (marked PARTIAL) before the
// error is returned.
func runChaos(eng *sweep.Engine, suite []*kernels.Instance, o chaosOpts) error {
	var ks []*kernels.Instance
	for _, name := range strings.Split(o.kernels, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var k *kernels.Instance
		for _, c := range suite {
			if c.Name == name {
				k = c
				break
			}
		}
		if k == nil {
			return fmt.Errorf("chaos: kernel %q not in the active suite", name)
		}
		ks = append(ks, k)
	}
	var classes []fault.Class
	for _, s := range strings.Split(o.classes, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		cl, err := fault.ParseClass(s)
		if err != nil {
			return err
		}
		classes = append(classes, cl)
	}
	var rates []float64
	for _, s := range strings.Split(o.rates, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("chaos: bad rate %q: %v", s, err)
		}
		rates = append(rates, r)
	}
	c := chaos.Campaign{
		Kernels: ks, Classes: classes, Rates: rates,
		Trials: o.trials, Seed: o.seed, E2ERetries: o.e2e,
	}
	rep, err := c.Run(eng)
	if rep != nil && len(rep.Cells) > 0 || err == nil {
		fmt.Fprintln(o.out, "== Chaos campaign: memory-fault reliability ==")
		chaos.Render(o.out, rep)
	}
	if err != nil {
		return err
	}
	if o.drill > 0 {
		if err := rep.Drill(o.drill); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "chaos drill: ok (every class >= %d detected recoveries, all %d trials classified)\n",
			o.drill, rep.TrialsPerCell*len(rep.Cells))
	}
	return nil
}

func fatal(err error) {
	stopProf() // best effort: keep the partial CPU profile of a failed run
	fmt.Fprintln(os.Stderr, "hetexp:", err)
	os.Exit(1)
}
