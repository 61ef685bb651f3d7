// benchreport turns `go test -bench` output into a machine-readable perf
// record. It reads the benchmark stream on stdin, echoes it unchanged (so
// it can sit at the end of a pipe without hiding progress), parses every
// benchmark line including custom metrics (Msimcycles/s, the reproduced
// headline numbers the paper benchmarks report), and writes a JSON report.
//
// Usage:
//
//	go test -bench . -benchmem | benchreport -o BENCH_PR2.json -before 6.922
//
// -before records the pre-optimization simulator throughput so the report
// carries its own baseline; -min (Msimcycles/s) makes the tool exit
// non-zero when the measured throughput falls below a floor, turning any
// CI bench run into a regression gate. -max-loss additionally bounds the
// relative regression against -before (e.g. -max-loss 0.01 fails if the
// measured throughput lost more than 1% vs the baseline — the
// observability-off zero-cost gate). When the stream contains
// SimulatorThroughputObs (the observed-mode twin), the report records the
// on/off overhead under "obs_overhead". -min-ratio (repeatable,
// "num:den=min") gates one benchmark's Msimcycles/s against another's in
// the same process and run — the fused-over-stepped tier gates —
// and -max-allocs (repeatable, "bench=N", trailing '*' for a prefix)
// gates steady-state allocations. Repeated benchmark lines from
// -count=N are folded best-of (min ns/op, max custom metrics) so the
// gates judge the machine's capability, not its noise floor. The format
// is documented in EXPERIMENTS.md ("Simulator throughput").
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level BENCH_PRn.json document.
type Report struct {
	Go         string               `json:"go"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
	Throughput *Throughput          `json:"throughput,omitempty"`
	Sweep      *Sweep               `json:"sweep,omitempty"`
	Obs        *ObsOverhead         `json:"obs_overhead,omitempty"`
	Fused      *FusedThroughput     `json:"fused_throughput,omitempty"`
}

// FusedThroughput is the fused execution record (DESIGN.md §12–13): the
// stepped vs fused ("super") throughput of the straight-line mix
// (SimulatorThroughputBlocks/<tier>) and, per hardware shape, of the
// branch-heavy family (SimulatorThroughputBranchy/<tier>/<shape>), each
// with its fused-over-stepped ratio. -min-block gates the mix's fused
// number; the per-shape ratios are gated in CI via -min-ratio, not by
// fields here, so the record stays a measurement and the gate stays
// explicit in the Makefile.
type FusedThroughput struct {
	Mix    *TierPair           `json:"mix,omitempty"`
	Shapes map[string]TierPair `json:"shapes,omitempty"`
}

// TierPair is one workload's stepped-vs-fused measurement.
type TierPair struct {
	SteppedMsimcyclesS float64 `json:"stepped_msimcycles_s"`
	SuperMsimcyclesS   float64 `json:"super_msimcycles_s"`
	SuperOverSteppedX  float64 `json:"super_over_stepped_x,omitempty"`
}

// Sweep is the evaluation wall-clock record from BenchmarkSweepWallclock:
// the reduced full evaluation end to end, serial vs parallel vs warm run
// cache (the PR3 headline numbers).
type Sweep struct {
	ColdJ1S         float64 `json:"cold_j1_s"`
	ColdJ4S         float64 `json:"cold_j4_s"`
	WarmS           float64 `json:"warm_s"`
	ParallelSpeedup float64 `json:"parallel_speedup_x"`
	WarmFraction    float64 `json:"warm_fraction"` // warm / cold-j1 wall clock
}

// Throughput is the headline simulator-speed record: the metric every
// perf PR moves, with its pre-change baseline alongside.
type Throughput struct {
	Metric  string  `json:"metric"`
	Before  float64 `json:"before,omitempty"`
	After   float64 `json:"after"`
	Speedup float64 `json:"speedup,omitempty"`
}

// ObsOverhead records what attaching the observability layer costs: the
// plain vs observed simulator throughput and the relative loss.
type ObsOverhead struct {
	OffMsimcyclesS float64 `json:"off_msimcycles_s"`
	OnMsimcyclesS  float64 `json:"on_msimcycles_s"`
	OverheadFrac   float64 `json:"overhead_frac"` // 1 - on/off
}

const throughputBench = "SimulatorThroughput"
const throughputMetric = "Msimcycles/s"
const sweepBench = "SweepWallclock"
const obsBench = "SimulatorThroughputObs"
const blockBench = "SimulatorThroughputBlocks"
const branchyBench = "SimulatorThroughputBranchy"

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// multiFlag collects a repeatable string flag (-min-ratio A -min-ratio B).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_PR2.json", "output JSON path")
	before := flag.Float64("before", 0, "baseline simulator throughput (Msimcycles/s) recorded alongside the measurement")
	min := flag.Float64("min", 0, "fail (exit 1) if simulator throughput is below this floor, 0 = off")
	maxLoss := flag.Float64("max-loss", 0, "fail (exit 1) if simulator throughput lost more than this fraction vs -before (e.g. 0.01 = 1%), 0 = off")
	warmMax := flag.Float64("warm-max", 0, "fail (exit 1) if the warm-cache sweep exceeds this fraction of the cold serial one, 0 = off")
	minBlock := flag.Float64("min-block", 0, "fail (exit 1) if fused mix throughput (SimulatorThroughputBlocks/super) is below this floor, 0 = off")
	var minRatios, maxAllocs multiFlag
	flag.Var(&minRatios, "min-ratio", "repeatable 'num:den=min' gate: fail (exit 1) if benchmark num's Msimcycles/s is below min times den's (e.g. 'SimulatorThroughputBranchy/super/pulp-1c:SimulatorThroughputBranchy/stepped/pulp-1c=2.64')")
	flag.Var(&maxAllocs, "max-allocs", "repeatable 'bench=N' gate: fail (exit 1) if the benchmark's allocs/op exceeds N; a trailing '*' on the name matches every benchmark with that prefix")
	flag.Parse()

	rep := Report{Go: runtime.Version(), Benchmarks: map[string]Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		mm := benchLine.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		iters, err := strconv.ParseInt(mm[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Iterations: iters, Metrics: map[string]float64{}}
		// The remainder is value/unit pairs: "123 ns/op  4 B/op  0.5 X/s".
		fields := strings.Fields(mm[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				val := v
				b.BytesPerOp = &val
			case "allocs/op":
				val := v
				b.AllocsPerOp = &val
			default:
				b.Metrics[unit] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		rep.Benchmarks[mm[1]] = bestOf(rep.Benchmarks[mm[1]], b)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	if tb, ok := rep.Benchmarks[throughputBench]; ok {
		if after, ok := tb.Metrics[throughputMetric]; ok {
			t := &Throughput{Metric: throughputMetric, Before: *before, After: after}
			if *before > 0 {
				t.Speedup = after / *before
			}
			rep.Throughput = t
		}
	}
	if rep.Throughput != nil {
		if ob, ok := rep.Benchmarks[obsBench]; ok {
			if on, ok := ob.Metrics[throughputMetric]; ok && rep.Throughput.After > 0 {
				rep.Obs = &ObsOverhead{
					OffMsimcyclesS: rep.Throughput.After,
					OnMsimcyclesS:  on,
					OverheadFrac:   1 - on/rep.Throughput.After,
				}
			}
		}
	}
	rep.Fused = fusedSection(rep.Benchmarks)
	if sb, ok := rep.Benchmarks[sweepBench]; ok {
		s := &Sweep{
			ColdJ1S:         sb.Metrics["sweep-j1-s"],
			ColdJ4S:         sb.Metrics["sweep-j4-s"],
			WarmS:           sb.Metrics["sweep-warm-s"],
			ParallelSpeedup: sb.Metrics["sweep-par-x"],
		}
		if s.ColdJ1S > 0 {
			s.WarmFraction = s.WarmS / s.ColdJ1S
		}
		rep.Sweep = s
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))

	if *min > 0 {
		if rep.Throughput == nil {
			fatal(fmt.Errorf("-min set but %s did not report %s", throughputBench, throughputMetric))
		}
		if rep.Throughput.After < *min {
			fatal(fmt.Errorf("simulator throughput %.2f %s below floor %.2f",
				rep.Throughput.After, throughputMetric, *min))
		}
	}
	if *maxLoss > 0 {
		if rep.Throughput == nil {
			fatal(fmt.Errorf("-max-loss set but %s did not report %s", throughputBench, throughputMetric))
		}
		if *before <= 0 {
			fatal(fmt.Errorf("-max-loss needs -before to compare against"))
		}
		if rep.Throughput.After < *before*(1-*maxLoss) {
			fatal(fmt.Errorf("simulator throughput %.2f %s lost %.1f%% vs baseline %.2f, above the %.1f%% ceiling",
				rep.Throughput.After, throughputMetric,
				(1 - rep.Throughput.After / *before)*100, *before, *maxLoss*100))
		}
	}
	if *minBlock > 0 {
		if rep.Fused == nil || rep.Fused.Mix == nil {
			fatal(fmt.Errorf("-min-block set but %s did not report stepped+super %s", blockBench, throughputMetric))
		}
		if rep.Fused.Mix.SuperMsimcyclesS < *minBlock {
			fatal(fmt.Errorf("fused mix throughput %.2f %s below floor %.2f",
				rep.Fused.Mix.SuperMsimcyclesS, throughputMetric, *minBlock))
		}
	}
	for _, g := range minRatios {
		if err := checkRatio(rep.Benchmarks, g); err != nil {
			fatal(err)
		}
	}
	for _, g := range maxAllocs {
		if err := checkAllocs(rep.Benchmarks, g); err != nil {
			fatal(err)
		}
	}
	if *warmMax > 0 {
		if rep.Sweep == nil {
			fatal(fmt.Errorf("-warm-max set but %s reported no sweep metrics", sweepBench))
		}
		if rep.Sweep.WarmFraction > *warmMax {
			fatal(fmt.Errorf("warm-cache sweep is %.1f%% of the cold serial one, above the %.1f%% ceiling",
				rep.Sweep.WarmFraction*100, *warmMax*100))
		}
	}
}

// fusedSection assembles the stepped-vs-fused record from
// SimulatorThroughputBlocks/<tier> and
// SimulatorThroughputBranchy/<tier>/<shape> entries, nil when the stream
// carried neither (so other bench runs keep their report shape).
func fusedSection(benches map[string]Benchmark) *FusedThroughput {
	var mix TierPair
	shapes := map[string]TierPair{}
	for name, b := range benches {
		v := b.Metrics[throughputMetric]
		if tier, ok := strings.CutPrefix(name, blockBench+"/"); ok {
			mix.set(tier, v)
		} else if rest, ok := strings.CutPrefix(name, branchyBench+"/"); ok {
			if tier, shape, ok := strings.Cut(rest, "/"); ok {
				p := shapes[shape]
				p.set(tier, v)
				shapes[shape] = p
			}
		}
	}
	if mix == (TierPair{}) && len(shapes) == 0 {
		return nil
	}
	f := &FusedThroughput{Shapes: shapes}
	if mix != (TierPair{}) {
		f.Mix = &mix
	}
	return f
}

// set records one tier's throughput and refreshes the ratio.
func (p *TierPair) set(tier string, v float64) {
	switch tier {
	case "stepped":
		p.SteppedMsimcyclesS = v
	case "super":
		p.SuperMsimcyclesS = v
	}
	if p.SteppedMsimcyclesS > 0 {
		p.SuperOverSteppedX = p.SuperMsimcyclesS / p.SteppedMsimcyclesS
	}
}

// checkRatio enforces one -min-ratio gate "num:den=min" on the
// Msimcycles/s metric of two parsed benchmarks.
func checkRatio(benches map[string]Benchmark, gate string) error {
	names, minStr, ok := strings.Cut(gate, "=")
	if !ok {
		return fmt.Errorf("-min-ratio %q: want 'num:den=min'", gate)
	}
	num, den, ok := strings.Cut(names, ":")
	if !ok {
		return fmt.Errorf("-min-ratio %q: want 'num:den=min'", gate)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil {
		return fmt.Errorf("-min-ratio %q: bad minimum: %v", gate, err)
	}
	nv, ok := benches[num].Metrics[throughputMetric]
	if !ok {
		return fmt.Errorf("-min-ratio: %s did not report %s", num, throughputMetric)
	}
	dv, ok := benches[den].Metrics[throughputMetric]
	if !ok || dv <= 0 {
		return fmt.Errorf("-min-ratio: %s did not report a positive %s", den, throughputMetric)
	}
	if r := nv / dv; r < min {
		return fmt.Errorf("%s is %.2fx of %s, below the %.2fx floor (%.2f vs %.2f %s)",
			num, r, den, min, nv, dv, throughputMetric)
	}
	return nil
}

// checkAllocs enforces one -max-allocs gate "bench=N"; a trailing '*'
// on the name gates every benchmark sharing that prefix (and it is an
// error for the prefix to match nothing — a renamed benchmark must not
// silently drop its allocation gate).
func checkAllocs(benches map[string]Benchmark, gate string) error {
	name, maxStr, ok := strings.Cut(gate, "=")
	if !ok {
		return fmt.Errorf("-max-allocs %q: want 'bench=N'", gate)
	}
	max, err := strconv.ParseFloat(maxStr, 64)
	if err != nil {
		return fmt.Errorf("-max-allocs %q: bad maximum: %v", gate, err)
	}
	prefix, wild := strings.CutSuffix(name, "*")
	matched := false
	for bn, b := range benches {
		if wild && !strings.HasPrefix(bn, prefix) || !wild && bn != name {
			continue
		}
		matched = true
		if b.AllocsPerOp == nil {
			return fmt.Errorf("-max-allocs: %s reported no allocs/op (run with -benchmem)", bn)
		}
		if *b.AllocsPerOp > max {
			return fmt.Errorf("%s allocates %.1f allocs/op, above the %.1f ceiling", bn, *b.AllocsPerOp, max)
		}
	}
	if !matched {
		return fmt.Errorf("-max-allocs: no benchmark matches %q", name)
	}
	return nil
}

// bestOf folds repeated runs of the same benchmark (go test -count=N)
// into the fastest one, wholesale: the run with the lowest ns/op wins and
// keeps all its metrics together, so derived numbers stay internally
// consistent. Gates then judge the machine's capability, not its noise
// floor, while a genuine regression still moves every repetition.
func bestOf(prev, b Benchmark) Benchmark {
	if prev.Iterations == 0 || (b.NsPerOp > 0 && b.NsPerOp < prev.NsPerOp) {
		return b
	}
	return prev
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
