// hetexp regenerates the tables and figures of the paper's evaluation.
//
// Usage:
//
//	hetexp [-exp table1|fig3|fig4|fig5a|ablate|fig5b|all] [-small] [-kernel name]
//	       [-j N] [-cache-dir DIR] [-no-cache] [-breakdown]
//	       [-remote URL] [-tenant NAME]
//	       [-resume FILE] [-scrub] [-stats-json FILE]
//
// -resume makes the campaign crash-safe: every completed job is appended
// (fsync'd, checksummed) to FILE before it counts as done, and a rerun
// with the same -resume replays the journal and simulates only the
// missing jobs — the rendered output is byte-identical to an
// uninterrupted run, even after SIGKILL (the kill-9 crash drill in
// internal/chaos proves it). -scrub quarantines what a killed writer can
// leave in the cache (leftover temp files, torn entries) and exits.
//
// -remote routes the measurement sweep through a hetsimd server instead
// of simulating locally: the whole campaign goes out as one streamed
// /v1/batch submission — content-keyed points, deduplicated server-side,
// served from the shared cache, completions consumed as they land, a cut
// stream resumed by re-submitting only the incomplete points. The
// rendered tables are byte-identical to local execution for the
// measurement experiments (table1, fig3, fig4, fig5a, -breakdown);
// ablate, fig5b and chaos run locally only and are skipped (-exp all) or
// rejected under -remote, as are -resume and -job-timeout (the server
// applies its own per-simulation budget, hetsimd -job-timeout).
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
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hetsim/internal/chaos"
	"hetsim/internal/cli"
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
	cacheDir := flag.String("cache-dir", defaultCacheDir(), "run-cache directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "disable the run cache")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation time budget (0 = unbounded)")
	remote := flag.String("remote", "", "route the measurement sweep through a hetsimd server at this base URL")
	tenant := flag.String("tenant", "", "tenant name sent with -remote requests (rate limiting/quota identity)")
	resume := flag.String("resume", "", "journal completed jobs to this file and replay it on restart (crash-safe resume)")
	scrub := flag.Bool("scrub", false, "scrub the run cache (quarantine corrupt entries and leftover temp files), report, and exit")
	statsJSON := flag.String("stats-json", "", "write machine-readable run stats (sweep/cache/journal/reconnects) to this file on success")
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
	var journal *sweep.Journal
	if *resume != "" {
		if *remote != "" {
			fatal(fmt.Errorf("-resume journals the local sweep engine; it cannot be combined with -remote"))
		}
		journal, err = sweep.OpenJournal(*resume)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
		if st := journal.Stats(); st.Replayed > 0 || st.TornBytes > 0 {
			fmt.Fprintf(os.Stderr, "resume: %d completed job(s) replayed from %s (%d torn byte(s) discarded)\n",
				st.Replayed, *resume, st.TornBytes)
		}
	}
	eng := sweep.New(sweep.Config{
		Workers:    *workers,
		Cache:      cache,
		Journal:    journal,
		Context:    ctx,
		JobTimeout: *jobTimeout,
		Progress: func(ev sweep.Event) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d jobs (%d cached)", ev.Done, ev.Total, ev.Cached)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})

	suite := kernels.PaperSuite()
	if *small {
		suite = kernels.SmallSuite()
	}

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

	var reconnects uint64
	var m *paper.Measurements
	if *remote != "" {
		switch *exp {
		case "all", "table1", "fig3", "fig4", "fig5a":
		default:
			fatal(fmt.Errorf("-exp %s runs locally only; -remote renders table1, fig3, fig4, fig5a", *exp))
		}
		if *jobTimeout > 0 {
			fatal(fmt.Errorf("-job-timeout bounds local simulations; under -remote the server's budget applies (set hetsimd -job-timeout)"))
		}
		// The whole campaign is one streamed /v1/batch submission; the
		// server's worker pool provides the overlap, reconnects re-submit
		// only incomplete points.
		fmt.Fprintf(os.Stderr, "measuring kernel suite via %s (one streamed batch, server workers overlap the points)...\n",
			*remote)
		client := &serve.Client{BaseURL: *remote, Tenant: *tenant}
		m, err = paper.MeasureRemoteBatch(ctx, client.RunBatch, suite, *small, *breakdown)
		if err != nil {
			fatal(err)
		}
		if reconnects = client.Reconnects(); reconnects > 0 {
			fmt.Fprintf(os.Stderr, "batch: %d reconnect(s) resumed the stream (only incomplete points re-submitted)\n",
				reconnects)
		}
	} else {
		fmt.Fprintf(os.Stderr, "measuring kernel suite (each kernel on 6 configurations, %d workers)...\n", eng.Workers())
		measure := paper.MeasureWith
		if *breakdown {
			measure = paper.MeasureObservedWith
		}
		m, err = measure(eng, suite)
		if err != nil {
			fatal(err)
		}
	}

	include := func(name string) bool {
		if *remote != "" && (name == "ablate" || name == "fig5b") {
			if *exp == "all" {
				fmt.Fprintf(os.Stderr, "hetexp: skipping %s under -remote (it renders table1, fig3, fig4, fig5a only)\n", name)
			}
			return false
		}
		return *exp == "all" || *exp == name
	}
	if err := paper.RenderCampaign(os.Stdout, eng, m, paper.CampaignOptions{
		Include: include, Breakdown: *breakdown, Fig5bKernel: *kernel,
	}); err != nil {
		fatal(err)
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
	Sweep      sweep.Stats         `json:"sweep"`
	Cache      *sweep.CacheStats   `json:"cache,omitempty"`
	Journal    *sweep.JournalStats `json:"journal,omitempty"`
	Reconnects uint64              `json:"reconnects,omitempty"`
}

// writeStatsJSON dumps the run's counters to path (no-op when empty).
func writeStatsJSON(path string, eng *sweep.Engine, reconnects uint64) error {
	if path == "" {
		return nil
	}
	out := statsOut{Sweep: eng.Stats(), Reconnects: reconnects}
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		out.Cache = &cs
	}
	if j := eng.Journal(); j != nil {
		js := j.Stats()
		out.Journal = &js
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sweepStats prints the engine's cumulative counters; it runs on success
// and on a cancelled or failed campaign alike, so a SIGINT still reports
// what was completed (and what a future warm run will skip).
func sweepStats(eng *sweep.Engine) {
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "sweep: %d jobs, %d simulated, %d served from cache\n",
		st.Jobs, st.Executed, st.CacheHits)
	if j := eng.Journal(); j != nil {
		js := j.Stats()
		fmt.Fprintf(os.Stderr, "journal: %d job(s) replayed on resume, %d appended this run (%s)\n",
			st.JournalHits, js.Appended, j.Path())
		if js.AppendFails > 0 {
			// A journal that cannot persist silently downgrades -resume to
			// re-simulation; say so while the campaign is still attended.
			fmt.Fprintf(os.Stderr, "journal: warning: %d append(s) failed; a crash would re-simulate those jobs\n",
				js.AppendFails)
		}
	}
	if c := eng.Cache(); c != nil {
		cs := c.Stats()
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
	// Compile-tier counters (DESIGN.md §12–13): how much of the campaign
	// ran compiled. Block/superblock are table builds in the CPU model;
	// memo hit/miss splits kernels.Compiled lookups into reused vs freshly
	// built tables across the whole process.
	bc, sc, mh, mm := kernels.CompileStats()
	fmt.Fprintf(os.Stderr, "compile: %d block tables, %d superblocks, memo %d hit / %d miss\n",
		bc, sc, mh, mm)
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

// defaultCacheDir places the run cache under the user cache directory
// (an unresolvable one disables caching rather than failing).
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "hetsim")
}

func fatal(err error) {
	stopProf() // best effort: keep the partial CPU profile of a failed run
	fmt.Fprintln(os.Stderr, "hetexp:", err)
	os.Exit(1)
}
