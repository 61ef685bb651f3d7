package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// event is one Chrome trace event ("X" complete span, "i" instant, "M"
// metadata). Spans are kept in memory and written when the pass ends.
type event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds since the Unix epoch
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// recorder collects the spans of one process.
type recorder struct {
	mu     sync.Mutex
	events []event
}

func micros(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }

func (r *recorder) span(name, cat string, tid int, start, end time.Time, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, event{Name: name, Cat: cat, Phase: "X", TS: micros(start),
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3, TID: tid, Args: args})
}

func (r *recorder) instant(name, cat string, tid int, at time.Time, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, event{Name: name, Cat: cat, Phase: "i", TS: micros(at), TID: tid, Scope: "t", Args: args})
}

// probeOut is what one probe reports: its metrics, its spans and its
// correctness checks. A re-executed probe prints it as JSON.
type probeOut struct {
	Metrics   map[string]float64 `json:"metrics"`
	Events    []event            `json:"events"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// traceResult is the outcome of the traced pass.
type traceResult struct {
	values map[string]float64
	events []event
	gate   gate
}

// tracePass runs every probe, each re-executed in a fresh process (so
// per-process memos start cold, as they do for a user) unless it drives
// the real binaries, and derives the per-layer metrics.
func tracePass(ctx context.Context, c runConfig) (traceResult, error) {
	res := traceResult{values: map[string]float64{}}
	sb, err := newSandbox(c.tmp, "trace")
	if err != nil {
		return res, err
	}
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	for pid, p := range probes {
		var out probeOut
		t0 := time.Now()
		if p.local {
			out, err = runProbe(ctx, p, sb.dir, c)
		} else {
			out, err = reexecProbe(ctx, sb, self, p.name, c)
		}
		if err == nil {
			err = ctx.Err() // an interrupted probe's numbers are not a result
		}
		if err != nil {
			return res, fmt.Errorf("probe %s: %w", p.name, err)
		}
		fmt.Fprintf(os.Stderr, "probe %-12s %6.2fs  %d check(s), %d failed\n",
			p.name, time.Since(t0).Seconds(), out.Attempted, out.Failed)
		for k, v := range out.Metrics {
			res.values[k] = v
		}
		res.gate.add(gate{attempted: out.Attempted, failed: out.Failed, failures: out.Failures})
		res.events = append(res.events, event{Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": "probe " + p.name}})
		for _, e := range out.Events {
			e.PID = pid
			res.events = append(res.events, e)
		}
	}
	derive(res.values, c.workload)
	return res, nil
}

// reexecProbe runs one probe in a fresh copy of this program.
func reexecProbe(ctx context.Context, sb *sandbox, self, name string, c runConfig) (probeOut, error) {
	var out probeOut
	res, err := runChild(ctx, sb, self, "-probe", name, "-probe-dir", sb.dir,
		"-seed", fmt.Sprint(c.seed), "-workload", c.workload, "-bin", c.bin)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(res.stdout, &out); err != nil {
		return out, fmt.Errorf("reading probe output: %w", err)
	}
	return out, nil
}

// derivedMetrics are computed from the probes' raw numbers by derive.
var derivedMetrics = []string{
	"sweep.par_eff", "sweep.idle_worker_s", "sweep.executed", "sweep.cache_hits",
	"trace.overhead_frac", "trace.residual_frac",
}

// derive computes the cross-probe metrics. Parallel efficiency compares
// the job time of the one-worker replica, where job spans are exact, with
// the capacity of the two-worker replica; the residual is the part of the
// replica's wall clock no experiment span covers (rendering, set-up).
func derive(v map[string]float64, workload string) {
	wall, jobs := v["replica.wall_s"], v["replica.job_s"]
	v["sweep.par_eff"] = jobs / (workers * wall)
	v["sweep.idle_worker_s"] = workers*wall - jobs
	v["sweep.executed"] = v["sweep.executed."+workload]
	v["sweep.cache_hits"] = v["sweep.cache_hits."+workload]
	v["trace.overhead_frac"] = wall/v["hetexp.cold_median_s"] - 1
	var covered float64
	for k, x := range v {
		if strings.HasPrefix(k, "paper.") && strings.HasSuffix(k, "_s") {
			covered += x
		}
	}
	v["trace.residual_frac"] = (wall - covered) / wall
}

// writeTrace writes the Chrome trace of the pass, timestamps rebased to
// its first event.
func writeTrace(path string, events []event) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	var t0 float64
	for _, e := range events {
		if e.Phase != "M" {
			t0 = e.TS
			break
		}
	}
	for i := range events {
		if events[i].Phase != "M" {
			events[i].TS -= t0
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
