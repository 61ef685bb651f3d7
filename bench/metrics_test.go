package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/paper"
)

func TestMetricDefsWithinCaps(t *testing.T) {
	if err := checkDefs(endToEnd, maxEndToEnd); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer, maxPerLayer); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	too := make([]metricDef, maxEndToEnd+1)
	for i := range too {
		too[i] = metricDef{Name: "m" + strings.Repeat("x", i), Unit: "s", Better: "lower"}
	}
	if checkDefs(too, maxEndToEnd) == nil {
		t.Errorf("%d end-to-end metrics accepted", len(too))
	}
	for _, bad := range []string{"", "a b", "_lead", "per/slash", strings.Repeat("n", 65), "dup"} {
		defs := []metricDef{{Name: "dup", Unit: "s", Better: "lower"}, {Name: bad, Unit: "s", Better: "lower"}}
		if checkDefs(defs, maxPerLayer) == nil {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	if checkDefs([]metricDef{{Name: "ok", Unit: "a unit", Better: "lower"}}, 1) == nil {
		t.Error("unit with a space accepted")
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the program declare the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, program has %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer %+v, program has %+v", f.PerLayer, perLayer)
	}
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

// Every metric BENCHMARK.json lists is emitted: the end-to-end reduction
// produces all of them, and the probes plus the derived metrics cover the
// whole per-layer list.
func TestEveryListedMetricIsEmitted(t *testing.T) {
	f := readBenchmarkFile(t)
	r := loopResult{Campaigns: []float64{2, 3}, RSS: []float64{20}, CPU: 7, Busy: 5, Setups: []float64{0.004}}
	if _, err := emit(endToEndValues(r), f.EndToEnd); err != nil {
		t.Error(err)
	}
	for _, w := range workloadNames {
		vals := map[string]float64{}
		for _, p := range probes {
			for _, name := range p.provides {
				vals[name] = 1
			}
		}
		derive(vals, w)
		if _, err := emit(vals, f.PerLayer); err != nil {
			t.Errorf("workload %s: %v", w, err)
		}
	}
	if _, err := emit(map[string]float64{}, f.EndToEnd); err == nil {
		t.Error("emit accepted a result with no metrics")
	}
}

func TestMeasureMatrixMatchesPaper(t *testing.T) {
	var cfgs []string
	for _, rc := range measureMatrix {
		cfgs = append(cfgs, rc.cfg)
	}
	if want := paper.SpecConfigs(); !reflect.DeepEqual(cfgs, want) {
		t.Errorf("measureMatrix configs %v, paper has %v", cfgs, want)
	}
}

func TestStepSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for step := 0; step < maxColdSteps; step++ {
			s := stepSeed(seed, step)
			if s < 2 || seen[s] {
				t.Fatalf("stepSeed(%d, %d) = %d repeats or aliases the default seed", seed, step, s)
			}
			seen[s] = true
		}
	}
}
