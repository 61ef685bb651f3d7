// Command bench is the campaign benchmark of hetsim. It times the real
// hetexp and hetsimd binaries, built from the tree under test, on four
// workloads — a cold and a warm local `hetexp -exp all -j 2` campaign, and
// a warm and a cold hetsimd under two closed-loop clients — and checks
// every output against golden digests. With -trace 1 it instead runs the
// traced pass: probes that time each module's public entry points from
// outside, each in a fresh process, and a Chrome trace of the campaign.
//
// Run it from the repository root through bench/run.sh, which builds this
// program and the two binaries under .bench_build:
//
//	bash bench/run.sh --workload campaign-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// full noise record goes to -out.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the timed loop in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the results record and trace.json")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the hetexp and hetsimd binaries")
	probeName := flag.String("probe", "", "internal: run one probe of the traced pass and print its JSON")
	probeDir := flag.String("probe-dir", "", "internal: working root of the traced pass")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: want -workload one of %s, -seconds >= 1, -trace 0 or 1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if err := errors.Join(checkDefs(endToEnd, maxEndToEnd), checkDefs(perLayer, maxPerLayer)); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	binDir, err := filepath.Abs(*bin)
	if err != nil {
		return fail(err)
	}
	c := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: binDir}
	for _, b := range []string{c.hetexp(), c.hetsimd()} {
		if _, err := os.Stat(b); err != nil {
			return fail(fmt.Errorf("%w (build it with bench/run.sh)", err))
		}
	}
	if *probeName != "" {
		return probeMain(ctx, *probeName, *probeDir, c)
	}

	outDir, err := filepath.Abs(*out)
	if err != nil {
		return fail(err)
	}
	tmpRoot := filepath.Join(filepath.Dir(binDir), "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	if c.tmp, err = os.MkdirTemp(tmpRoot, c.workload+"-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(c.tmp)

	rec := record{Workload: c.workload, Seed: c.seed, Trace: *traced, Seconds: *seconds, Env: environment()}
	rec.Calibration[0] = calibrate()
	var (
		g      gate
		values map[string]float64
		defs   = endToEnd
	)
	if *traced == 0 {
		r, err := runWorkload(ctx, c)
		if err != nil {
			return fail(err)
		}
		g, values = r.gate, endToEndValues(r)
		rec.Loop = &r
		rec.Summaries = map[string]summary{
			"campaign_s": summarize(r.Campaigns), "peak_rss_mb": summarize(r.RSS), "setup_s": summarize(r.Setups),
		}
	} else {
		tr, err := tracePass(ctx, c)
		if err != nil {
			return fail(err)
		}
		g, values, defs = tr.gate, tr.values, perLayer
		rec.Raw = values
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fail(err)
		}
		if err := writeTrace(filepath.Join(outDir, "trace.json"), tr.events); err != nil {
			return fail(err)
		}
	}
	rec.Calibration[1] = calibrate()
	metrics, err := emit(values, defs)
	if err != nil {
		return fail(err)
	}
	rec.Metrics, rec.Attempted, rec.Failed, rec.Failures = metrics, g.attempted, g.failed, g.failures
	if err := rec.write(outDir); err != nil {
		return fail(err)
	}
	rec.print(defs)

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{g.failed == 0 && g.attempted > 0, g.attempted, g.failed, metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// probeMain is the body of a re-executed probe process.
func probeMain(ctx context.Context, name, dir string, c runConfig) int {
	p, ok := probeByName(name)
	if !ok || dir == "" {
		return fail(fmt.Errorf("unknown probe %q or no -probe-dir", name))
	}
	out, err := runProbe(ctx, p, dir, c)
	if err != nil {
		return fail(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return fail(err)
	}
	return 0
}

// record is the noise record of one run, written to -out.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       int                    `json:"trace"`
	Seconds     int                    `json:"seconds"`
	Env         envRecord              `json:"env"`
	Calibration [2]calibration         `json:"calibration"` // before the set-up, after the loop
	Summaries   map[string]summary     `json:"summaries,omitempty"`
	Loop        *loopResult            `json:"loop,omitempty"`
	Raw         map[string]float64     `json:"raw,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
}

type envRecord struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit,omitempty"`
	SourceSHA256 string `json:"source_sha256"`
}

func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func (r *record) print(defs []metricDef) {
	fmt.Printf("workload %s  seed %d  trace %d  %d s  nproc %d  GOMAXPROCS %d  %s  source %.12s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.SourceSHA256)
	fmt.Printf("calibration: integer %.2f / %.2f ms, memory %.2f / %.2f ms (before / after)\n",
		r.Calibration[0].IntMS, r.Calibration[1].IntMS, r.Calibration[0].MemMS, r.Calibration[1].MemMS)
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %12.6g %-9s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if s, ok := r.Summaries[d.Name]; ok {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
			if s.P90 != nil {
				line += fmt.Sprintf(" p90=%.6g", *s.P90)
			}
		}
		fmt.Println(line)
	}
	if r.Raw != nil {
		wall := r.Raw["replica.wall_s"]
		fmt.Printf("reconciliation: replica wall %.4f s, experiments %.4f s, residual %.4f s\n",
			wall, wall*(1-r.Raw["trace.residual_frac"]), wall*r.Raw["trace.residual_frac"])
	}
	fmt.Printf("correctness: %d of %d checked operations failed\n", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Println("  FAIL", f)
	}
}

// environment records what the numbers were measured on and with.
func environment() envRecord {
	return envRecord{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitHead(),
		SourceSHA256: sourceDigest("."),
	}
}

// gitHead reads the checked-out commit without running git; a checkout
// that is not a repository has none.
func gitHead() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}

// sourceDigest hashes the Go sources and module files under root, so a
// record identifies the code it measured even outside a repository.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are not part of the build either
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

var calibrationSink uint64

// calibration is one timing of two fixed loops, so drift of the runner
// shows next to the numbers it produced: an integer loop that stays in
// registers, and random updates over a 16 MB table, which is how the
// simulator-bound workloads feel contention for caches and memory.
type calibration struct {
	IntMS float64 `json:"int_ms"`
	MemMS float64 `json:"mem_ms"`
}

func calibrate() calibration {
	table := make([]uint64, 1<<21)
	for i := range table {
		table[i] = uint64(i) // fault the pages in before timing
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := time.Now()
	for i := 0; i < 4_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>43] += x
	}
	t2 := time.Now()
	calibrationSink = x
	return calibration{IntMS: ms(t1.Sub(t0)), MemMS: ms(t2.Sub(t1))}
}
