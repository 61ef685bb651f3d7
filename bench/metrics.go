package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef declares one reported metric. The end-to-end list and its
// bounds are mirrored in BENCHMARK.json at the repository root; a unit test
// keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of hetexp or hetsimd sees, reported for
// every workload from the untraced timed loop. Every bound is the largest
// allowed: the two-core runner's own speed drifts by more than 10% between
// runs, and hetsimd's peak RSS moves with GC timing (README.md, "Noise").
var endToEnd = []metricDef{
	{"campaign_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"campaigns_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer explain the end-to-end numbers; the traced pass reports them.
// README.md maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"paper.measure_s", "s", "lower", 0},
	{"paper.ext_ablation_s", "s", "lower", 0},
	{"paper.bank_sweep_s", "s", "lower", 0},
	{"paper.link_ablation_s", "s", "lower", 0},
	{"paper.scaling_s", "s", "lower", 0},
	{"paper.sensor_ablation_s", "s", "lower", 0},
	{"paper.fig5b_s", "s", "lower", 0},
	{"paper.render_ms", "ms", "lower", 0},
	{"paper.spec_build_us", "us", "lower", 0},
	{"paper.fold_ms", "ms", "lower", 0},

	{"sweep.par_eff", "ratio", "higher", 0},
	{"sweep.idle_worker_s", "s", "lower", 0},
	{"sweep.dispatch_us", "us", "lower", 0},
	{"sweep.cache_get_us", "us", "lower", 0},
	{"sweep.cache_put_us", "us", "lower", 0},
	{"sweep.journal_append_us", "us", "lower", 0},
	{"sweep.executed", "count", "lower", 0},
	{"sweep.cache_hits", "count", "higher", 0},

	{"kernels.build_ms", "ms", "lower", 0},
	{"kernels.compile_ms", "ms", "lower", 0},
	{"kernels.block_compiles.cold", "count", "lower", 0},
	{"kernels.block_compiles.warm", "count", "lower", 0},
	{"kernels.superblock_compiles.cold", "count", "lower", 0},
	{"kernels.memo_hit_frac.cold", "ratio", "higher", 0},

	{"cluster.plain.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.m3.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.m4.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.pulp1.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.pulp2.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.pulp4.mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cluster.plain.busy_s", "s", "lower", 0},
	{"cluster.m3.busy_s", "s", "lower", 0},
	{"cluster.m4.busy_s", "s", "lower", 0},
	{"cluster.pulp1.busy_s", "s", "lower", 0},
	{"cluster.pulp2.busy_s", "s", "lower", 0},
	{"cluster.pulp4.busy_s", "s", "lower", 0},
	{"cluster.sim_mcycles", "Mcycles", "lower", 0},

	{"core.offload_ms", "ms", "lower", 0},
	{"core.link_compose_ms", "ms", "lower", 0},

	{"serve.warm_point_us", "us", "lower", 0},
	{"serve.wire_bytes_per_point", "bytes", "lower", 0},
	{"serve.exec_per_key", "ratio", "lower", 0},
	{"serve.dedup_frac", "ratio", "higher", 0},
	{"serve.cache_hit_frac", "ratio", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.retries", "count", "lower", 0},

	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.residual_frac", "ratio", "lower", 0},
}

// Caps and name/unit alphabets of the result format.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs validates a metric list against the caps and the name and
// unit alphabets, and rejects duplicate names.
func checkDefs(defs []metricDef, max int) error {
	if len(defs) == 0 || len(defs) > max {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), max)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRe.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, nameRe)
		}
		if !unitRe.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRe)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit selects exactly the metrics defs names from the measured values. A
// declared metric that was not measured, or a value that is not a finite
// number, is an error: the result line never silently drops a metric.
func emit(values map[string]float64, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
