package cluster_test

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/hw"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/obs"
	"hetsim/internal/trace"
)

// TestObservabilityDifferential proves the observability layer is purely
// observational: for every kernel of the small suite on pulp-1/2/4t, in
// both the event-driven and the reference run loop, attaching attribution
// changes neither cycle counts, outputs nor stats by a single bit — and
// the attribution it produces satisfies the exactness invariant (every
// core's class sum equals the cluster cycle count) and is itself
// identical across the two loops.
func TestObservabilityDifferential(t *testing.T) {
	for _, k := range kernels.SmallSuite() {
		for _, threads := range []uint32{1, 2, 4} {
			name := k.Name + "/pulp-" + strconv.Itoa(int(threads)) + "t"
			t.Run(name, func(t *testing.T) {
				prog, err := k.Build(cluster.PULPConfig().Target, devrt.Accel)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(),
					Iters: 1, Threads: threads, Args: k.Args()}

				var runs [4]*cluster.JobResult
				i := 0
				for _, ref := range []bool{false, true} {
					for _, observe := range []bool{false, true} {
						cfg := cluster.PULPConfig()
						cfg.ReferenceRun = ref
						cfg.Observe = observe
						r, err := cluster.RunJob(cfg, devrt.Accel, job, 2_000_000_000)
						if err != nil {
							t.Fatalf("run (ref=%v observe=%v): %v", ref, observe, err)
						}
						runs[i] = r
						i++
					}
				}
				base := runs[0]
				for j, r := range runs[1:] {
					if r.Cycles != base.Cycles {
						t.Errorf("run %d cycles diverged: %d vs %d", j+1, r.Cycles, base.Cycles)
					}
					if !bytes.Equal(r.Out, base.Out) {
						t.Errorf("run %d output diverged", j+1)
					}
					if !reflect.DeepEqual(r.Stats, base.Stats) {
						t.Errorf("run %d stats diverged:\n%+v\nvs\n%+v", j+1, r.Stats, base.Stats)
					}
				}
				// Attribution exactness: each observed core's class sum is the
				// cluster cycle count, in both loops, and the attributions agree.
				for _, r := range []*cluster.JobResult{runs[1], runs[3]} {
					if r.Attr == nil {
						t.Fatal("observed run returned no attribution")
					}
					for ci := range r.Attr.Cores {
						if got := r.Attr.Cores[ci].Total(); got != r.Stats.Cycles {
							t.Errorf("core %d attribution sum %d != cycles %d\nclasses: %v",
								ci, got, r.Stats.Cycles, r.Attr.Cores[ci].C)
						}
					}
				}
				if !reflect.DeepEqual(runs[1].Attr, runs[3].Attr) {
					t.Errorf("attribution diverged between run loops:\n%+v\nvs\n%+v",
						runs[1].Attr.Sum(), runs[3].Attr.Sum())
				}
				if runs[0].Attr != nil || runs[2].Attr != nil {
					t.Error("unobserved run returned an attribution")
				}
			})
		}
	}
}

var wakeRe = regexp.MustCompile(`c(\d+)\s+wake slept=(\d+)`)

// traceSleepTotals parses the per-core credited sleep cycles out of the
// wake events ("slept=N") of a formatted trace.
func traceSleepTotals(out string, cores int) []uint64 {
	totals := make([]uint64, cores)
	for _, m := range wakeRe.FindAllStringSubmatch(out, -1) {
		core, _ := strconv.Atoi(m[1])
		n, _ := strconv.ParseUint(m[2], 10, 64)
		totals[core] += n
	}
	return totals
}

// TestTraceSleepMatchesStats is the regression test for the sleep/wake
// trace bug: cores skipped over CreditIdle fast-forward windows used to
// wake with no intervening trace events (and cores still asleep at run
// end emitted nothing at all), so trace-derived sleep totals disagreed
// with the credited Sleep counters. With sleep/wake events emitted at the
// transitions and synthesized at run exit, the per-core sum of "slept=N"
// must equal CollectStats' Sleep counter exactly — in both run loops.
func TestTraceSleepMatchesStats(t *testing.T) {
	k, err := kernels.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Build(cluster.PULPConfig().Target, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []bool{false, true} {
		cfg := cluster.PULPConfig()
		cfg.ReferenceRun = ref
		job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(),
			Iters: 1, Threads: 4, Args: k.Args()}
		l, err := loader.Plan(job, cfg.TCDMSize, cfg.L2Size)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.New(cfg)
		if err := cl.LoadProgram(job.Prog, false); err != nil {
			t.Fatal(err)
		}
		if err := cl.L2.WriteBytes(hw.DescBase, loader.Descriptor(job, l)); err != nil {
			t.Fatal(err)
		}
		if err := cl.L2.WriteBytes(l.InLMA, job.In); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tr := trace.New(&sb, 0)
		tr.CoreFilter = -1
		cl.AttachTracer(tr)
		cl.Start(job.Prog.Entry)
		if _, err := cl.Run(2_000_000_000); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		stats := cl.CollectStats()
		got := traceSleepTotals(sb.String(), cfg.Cores)
		for i, st := range stats.Cores {
			if got[i] != st.Sleep {
				t.Errorf("ref=%v core %d: trace-derived sleep %d != credited sleep %d",
					ref, i, got[i], st.Sleep)
			}
			if sum := st.Active + st.Stall + st.Sleep; sum != stats.Cycles {
				t.Errorf("ref=%v core %d: Active+Stall+Sleep = %d != %d cycles (double- or under-credit)",
					ref, i, sum, stats.Cycles)
			}
		}
		if tr.Dropped() != 0 {
			t.Fatalf("trace dropped %d events; totals unreliable", tr.Dropped())
		}
	}

	// Fused leg (no tracer — a tracer turns fusion off): solo and window
	// batch charges, their lazily charged tails and CreditIdle
	// fast-forward windows must partition the cycle axis exactly. Any cycle credited twice (a
	// fused completion also swept up by CreditIdle) or not at all breaks the
	// per-core identity against the cluster cycle count.
	cfg := cluster.PULPConfig()
	job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(),
		Iters: 1, Threads: 4, Args: k.Args()}
	res, err := cluster.RunJob(cfg, devrt.Accel, job, 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stats.Cores {
		if sum := st.Active + st.Stall + st.Sleep; sum != res.Stats.Cycles {
			t.Errorf("block core %d: Active+Stall+Sleep = %d != %d cycles (double- or under-credit)",
				i, sum, res.Stats.Cycles)
		}
	}
}

// TestTimelineSpansFromCluster drives a multi-core kernel with the full
// observer attached (attribution + cycle-domain timeline) and checks the
// accelerator-side span recorder sees core run/sleep spans, DMA transfers
// and barrier spans, all within the run's cycle range.
func TestTimelineSpansFromCluster(t *testing.T) {
	k, err := kernels.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.PULPConfig()
	prog, err := k.Build(cfg.Target, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	job := loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(),
		Iters: 1, Threads: 4, Args: k.Args()}
	l, err := loader.Plan(job, cfg.TCDMSize, cfg.L2Size)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cfg)
	if err := cl.LoadProgram(job.Prog, false); err != nil {
		t.Fatal(err)
	}
	if err := cl.L2.WriteBytes(hw.DescBase, loader.Descriptor(job, l)); err != nil {
		t.Fatal(err)
	}
	if err := cl.L2.WriteBytes(l.InLMA, job.In); err != nil {
		t.Fatal(err)
	}
	var tl obs.ClusterTL
	cl.AttachObs(&obs.Observer{TL: &tl})
	cl.Start(job.Prog.Entry)
	if _, err := cl.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	end := cl.Now()
	var haveRun, haveSleep, haveDMA, haveBarrier bool
	for _, s := range tl.Spans {
		if s.End < s.Start || s.End > end {
			t.Errorf("span %q out of range [%d,%d] (run ends at %d)", s.Name, s.Start, s.End, end)
		}
		switch {
		case s.Cat == "run":
			haveRun = true
		case s.Cat == "sleep":
			haveSleep = true
		case s.Cat == "dma":
			haveDMA = true
		case s.Cat == "sync" && s.Name == "barrier":
			haveBarrier = true
		}
	}
	if !haveRun || !haveSleep || !haveDMA || !haveBarrier {
		t.Errorf("missing span kinds: run=%v sleep=%v dma=%v barrier=%v (%d spans)",
			haveRun, haveSleep, haveDMA, haveBarrier, len(tl.Spans))
	}
}
