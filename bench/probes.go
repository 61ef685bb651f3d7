package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"hetsim/internal/asm"
	"hetsim/internal/cluster"
	"hetsim/internal/core"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/paper"
	"hetsim/internal/power"
	"hetsim/internal/serve"
	"hetsim/internal/sweep"
)

// probeEnv is what a probe runs with.
type probeEnv struct {
	dir  string // the traced pass's working root, shared by all probes
	cfg  runConfig
	rec  *recorder
	gate *gate
}

func (e probeEnv) path(name string) string { return filepath.Join(e.dir, name) }

// probe times the public entry points of one module from outside.
type probe struct {
	name     string
	local    bool     // drives the real binaries, so it runs in the benchmark process
	provides []string // the metrics it reports, exactly
	run      func(ctx context.Context, e probeEnv) (map[string]float64, error)
}

// probes run in this order: replica-j2 fills the cache the later probes
// read.
var probes = []probe{
	{"hetexp", true, []string{"hetexp.cold_median_s",
		"sweep.executed.campaign-cold", "sweep.cache_hits.campaign-cold",
		"sweep.executed.campaign-warm", "sweep.cache_hits.campaign-warm"}, probeHetexp},
	{"replica-j2", false, []string{"replica.wall_s",
		"paper.measure_s", "paper.ext_ablation_s", "paper.bank_sweep_s", "paper.link_ablation_s",
		"paper.scaling_s", "paper.sensor_ablation_s", "paper.fig5b_s", "paper.render_ms",
		"kernels.block_compiles.cold", "kernels.superblock_compiles.cold", "kernels.memo_hit_frac.cold"}, probeReplicaJ2},
	{"replica-j1", false, []string{"replica.job_s"}, probeReplicaJ1},
	{"replica-warm", false, []string{"kernels.block_compiles.warm"}, probeReplicaWarm},
	{"kernels", false, []string{"kernels.build_ms", "kernels.compile_ms"}, probeKernels},
	{"cluster", false, clusterMetrics(), probeCluster},
	{"core", false, []string{"core.offload_ms", "core.link_compose_ms"}, probeCore},
	{"sweep", false, []string{"sweep.dispatch_us", "sweep.cache_get_us", "sweep.cache_put_us", "sweep.journal_append_us"}, probeSweep},
	{"wire", false, []string{"paper.spec_build_us", "paper.fold_ms"}, probeWire},
	{"hetsimd", true, []string{"serve.warm_point_us", "serve.wire_bytes_per_point",
		"serve.exec_per_key", "serve.dedup_frac", "serve.cache_hit_frac", "serve.rejected", "serve.retries",
		"sweep.executed.service-warm", "sweep.cache_hits.service-warm",
		"sweep.executed.service-cold", "sweep.cache_hits.service-cold"}, probeService},
}

func probeByName(name string) (probe, bool) {
	for _, p := range probes {
		if p.name == name {
			return p, true
		}
	}
	return probe{}, false
}

// runProbe runs p in this process and checks that it reported exactly the
// metrics it declares.
func runProbe(ctx context.Context, p probe, dir string, c runConfig) (probeOut, error) {
	var (
		rec recorder
		g   gate
	)
	vals, err := p.run(ctx, probeEnv{dir: dir, cfg: c, rec: &rec, gate: &g})
	if err != nil {
		return probeOut{}, err
	}
	if len(vals) != len(p.provides) {
		return probeOut{}, fmt.Errorf("reported %d metrics, declares %d", len(vals), len(p.provides))
	}
	for _, name := range p.provides {
		if _, ok := vals[name]; !ok {
			return probeOut{}, fmt.Errorf("did not report %s", name)
		}
	}
	return probeOut{Metrics: vals, Events: rec.events, Attempted: g.attempted, Failed: g.failed, Failures: g.failures}, nil
}

// probeHetexp times real cold campaigns (the reference for the replica's
// overhead) and reads the sweep counters of cold and warm campaigns.
func probeHetexp(ctx context.Context, e probeEnv) (map[string]float64, error) {
	const runs = 3
	var (
		walls []float64
		cold  runStats
		last  *sandbox
	)
	for i := 0; i < runs; i++ {
		sb, err := newSandbox(e.dir, "cold")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, st, err := hetexpCampaign(ctx, e.cfg, sb, sb.path("cache"), true)
		e.rec.span("hetexp -exp all (cold)", "campaign", 0, t0, t0.Add(res.wall), nil)
		e.gate.record("hetexp cold campaign", err)
		walls = append(walls, res.wall.Seconds())
		cold.Sweep.Executed += st.Sweep.Executed
		cold.Sweep.CacheHits += st.Sweep.CacheHits
		last = sb
	}
	sb, err := newSandbox(e.dir, "warm")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, warm, err := hetexpCampaign(ctx, e.cfg, sb, last.path("cache"), false)
	e.rec.span("hetexp -exp all (warm)", "campaign", 0, t0, t0.Add(res.wall), nil)
	e.gate.record("hetexp warm campaign", err)
	return map[string]float64{
		"hetexp.cold_median_s":           median(walls),
		"sweep.executed.campaign-cold":   float64(cold.Sweep.Executed) / runs,
		"sweep.cache_hits.campaign-cold": float64(cold.Sweep.CacheHits) / runs,
		"sweep.executed.campaign-warm":   float64(warm.Sweep.Executed),
		"sweep.cache_hits.campaign-warm": float64(warm.Sweep.CacheHits),
	}, nil
}

// checkReplica applies the campaign gate to a replica's output and counts.
func checkReplica(e probeEnv, r replicaRun, cold bool) {
	err := checkOutput(r.out, goldenCampaignSHA256)
	if cold && r.stats.Executed != r.stats.Jobs {
		err = errors.Join(err, fmt.Errorf("cold replica simulated %d of %d jobs", r.stats.Executed, r.stats.Jobs))
	}
	if !cold && r.stats.Executed != 0 {
		err = errors.Join(err, fmt.Errorf("warm replica simulated %d jobs", r.stats.Executed))
	}
	e.gate.record("replica campaign", err)
}

func compileCounts() (block, super, hitFrac float64) {
	bc, sc, hits, misses := kernels.CompileStats()
	return float64(bc), float64(sc), float64(hits) / float64(hits+misses)
}

func probeReplicaJ2(ctx context.Context, e probeEnv) (map[string]float64, error) {
	r, err := runReplica(workers, e.path("cache-j2"), e.rec)
	if err != nil {
		return nil, err
	}
	checkReplica(e, r, true)
	v := map[string]float64{"replica.wall_s": r.wall.Seconds(), "paper.render_ms": ms(r.render)}
	for name, d := range r.exp {
		v[name] = d.Seconds()
	}
	v["kernels.block_compiles.cold"], v["kernels.superblock_compiles.cold"], v["kernels.memo_hit_frac.cold"] = compileCounts()
	return v, nil
}

func probeReplicaJ1(ctx context.Context, e probeEnv) (map[string]float64, error) {
	r, err := runReplica(1, e.path("cache-j1"), e.rec)
	if err != nil {
		return nil, err
	}
	checkReplica(e, r, true)
	return map[string]float64{"replica.job_s": r.jobs.Seconds()}, nil
}

func probeReplicaWarm(ctx context.Context, e probeEnv) (map[string]float64, error) {
	r, err := runReplica(workers, e.path("cache-j2"), e.rec)
	if err != nil {
		return nil, err
	}
	checkReplica(e, r, false)
	block, _, _ := compileCounts()
	return map[string]float64{"kernels.block_compiles.warm": block}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// campaignBuild is one (target, mode) program build of a kernel; target is
// also what the program compiles for.
type campaignBuild struct {
	tgt  isa.Target
	mode devrt.Mode
}

// campaignBuilds lists the distinct programs a campaign builds per kernel:
// the measurement matrix's three host targets and the accelerator, and the
// five extension-ablated accelerator variants. The bank, link, scaling,
// sensor and Fig. 5b studies reuse the accelerator program.
func campaignBuilds() []campaignBuild {
	bs := []campaignBuild{
		{isa.PULPPlain, devrt.Host}, {isa.CortexM3, devrt.Host}, {isa.CortexM4, devrt.Host},
		{isa.PULPFull, devrt.Accel},
	}
	for _, v := range paper.ExtVariants {
		tgt := isa.PULPFull
		tgt.Name = isa.PULPFull.Name + v.Name
		v.Mod(&tgt.Feat)
		bs = append(bs, campaignBuild{tgt, devrt.Accel})
	}
	return bs
}

// probeKernels times building, then block-compiling, every program of the
// campaign in a fresh process.
func probeKernels(ctx context.Context, e probeEnv) (map[string]float64, error) {
	var progs []*asm.Program
	var tgts []isa.Target
	t0 := time.Now()
	for _, k := range kernels.PaperSuite() {
		for _, b := range campaignBuilds() {
			p, err := k.Build(b.tgt, b.mode)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
			tgts = append(tgts, b.tgt)
		}
	}
	t1 := time.Now()
	for i, p := range progs {
		if _, err := kernels.Compiled(p, tgts[i]); err != nil {
			return nil, err
		}
	}
	t2 := time.Now()
	e.rec.span("kernels.Build", "layer", 0, t0, t1, map[string]any{"programs": len(progs)})
	e.rec.span("kernels.Compiled", "layer", 0, t1, t2, map[string]any{"programs": len(progs)})
	return map[string]float64{"kernels.build_ms": ms(t1.Sub(t0)), "kernels.compile_ms": ms(t2.Sub(t1))}, nil
}

// measureMatrix mirrors the paper's measurement configurations (the order
// of paper.SpecConfigs).
var measureMatrix = []struct {
	cfg     string
	tgt     isa.Target
	mode    devrt.Mode
	threads uint32
}{
	{"plain", isa.PULPPlain, devrt.Host, 1},
	{"m3", isa.CortexM3, devrt.Host, 1},
	{"m4", isa.CortexM4, devrt.Host, 1},
	{"pulp1", isa.PULPFull, devrt.Accel, 1},
	{"pulp2", isa.PULPFull, devrt.Accel, 2},
	{"pulp4", isa.PULPFull, devrt.Accel, 4},
}

// measureMaxCycles bounds each simulation like the paper's measurement.
const measureMaxCycles = 4_000_000_000

func clusterMetrics() []string {
	names := []string{"cluster.sim_mcycles"}
	for _, rc := range measureMatrix {
		names = append(names, "cluster."+rc.cfg+".mcycles_per_s", "cluster."+rc.cfg+".busy_s")
	}
	return names
}

// probeCluster runs the measurement matrix serially through
// cluster.RunJob, programs compiled outside the timed calls, and checks
// every cycle count against the campaign's measurements.
func probeCluster(ctx context.Context, e probeEnv) (map[string]float64, error) {
	suite := kernels.PaperSuite()
	busy := map[string]time.Duration{}
	cycles := map[string]uint64{}
	got := map[string]uint64{} // kernel/config -> cycles
	for _, k := range suite {
		in := k.Input(1)
		for _, rc := range measureMatrix {
			prog, err := k.Build(rc.tgt, rc.mode)
			if err != nil {
				return nil, err
			}
			cfg := cluster.MCUConfig(rc.tgt)
			if rc.mode == devrt.Accel {
				cfg = cluster.PULPConfig()
			}
			comp, err := kernels.Compiled(prog, cfg.Target)
			if err != nil {
				return nil, err
			}
			job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: rc.threads, Args: k.Args(), Compiled: comp}
			t0 := time.Now()
			res, err := cluster.RunJob(cfg, rc.mode, job, measureMaxCycles)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			e.rec.span("cluster.RunJob", "job", 0, t0, t1, map[string]any{"kernel": k.Name, "config": rc.cfg, "cycles": res.Cycles})
			busy[rc.cfg] += t1.Sub(t0)
			cycles[rc.cfg] += res.Cycles
			got[k.Name+"/"+rc.cfg] = res.Cycles
		}
	}
	v := map[string]float64{}
	var total uint64
	for _, rc := range measureMatrix {
		b := busy[rc.cfg].Seconds()
		v["cluster."+rc.cfg+".busy_s"] = b
		v["cluster."+rc.cfg+".mcycles_per_s"] = float64(cycles[rc.cfg]) / 1e6 / b
		total += cycles[rc.cfg]
	}
	v["cluster.sim_mcycles"] = float64(total) / 1e6

	cache, err := sweep.Open(e.path("cache-j2"))
	if err != nil {
		return nil, err
	}
	m, err := paper.MeasureWith(sweep.New(sweep.Config{Workers: workers, Cache: cache}), suite)
	if err != nil {
		return nil, err
	}
	var mismatch error
	for _, k := range suite {
		for cfg, c := range m.ByK[k.Name].Cycles {
			if g := got[k.Name+"/"+string(cfg)]; g != c {
				mismatch = errors.Join(mismatch, fmt.Errorf("%s/%s: RunJob %d cycles, campaign %d", k.Name, string(cfg), g, c))
			}
		}
	}
	e.gate.record("cluster.RunJob matches the campaign's measurements", mismatch)
	return v, nil
}

// probeCore times the 100 System.Offload calls of Fig. 5b at the
// operating points of the campaign's own Fig. 5b series, and the same
// compute alone on cluster.RunJob; the difference is what link and power
// composition add per offload.
func probeCore(ctx context.Context, e probeEnv) (map[string]float64, error) {
	cache, err := sweep.Open(e.path("cache-j2"))
	if err != nil {
		return nil, err
	}
	eng := sweep.New(sweep.Config{Workers: 1, Cache: cache})
	mm := kernels.PaperSuite()[0]
	m, err := paper.MeasureWith(eng, []*kernels.Instance{mm})
	if err != nil {
		return nil, err
	}
	series, err := paper.Figure5bWith(eng, mm, m)
	if err != nil {
		return nil, err
	}
	prog, err := mm.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		return nil, err
	}
	job := loader.Job{Prog: prog, In: mm.Input(1), OutLen: mm.OutLen(), Iters: 1, Threads: 4, Args: mm.Args()}
	cfg := cluster.PULPConfig()
	compute := job
	if compute.Compiled, err = kernels.Compiled(prog, cfg.Target); err != nil {
		return nil, err
	}
	var offloads, alone []float64
	var mismatch error
	for _, s := range series {
		sys, err := core.NewSystem(core.Config{Host: power.STM32L476, HostFreqHz: s.MCUFreqHz, Lanes: 4,
			AccVdd: s.PULPVdd, AccFreqHz: s.PULPFreqHz})
		if err != nil {
			return nil, err
		}
		for i, n := range paper.Fig5bIterations {
			for _, db := range []bool{false, true} {
				t0 := time.Now()
				_, rep, err := sys.Offload(job, core.Options{Iterations: n, DoubleBuffer: db})
				t1 := time.Now()
				if err != nil {
					return nil, err
				}
				e.rec.span("core.Offload", "job", 0, t0, t1, map[string]any{"mcu_hz": s.MCUFreqHz, "iterations": n, "double_buffer": db})
				offloads = append(offloads, ms(t1.Sub(t0)))
				want := s.Eff[i]
				if db {
					want = s.EffDB[i]
				}
				if rep.Efficiency != want {
					mismatch = errors.Join(mismatch, fmt.Errorf("%g MHz, %d iterations, db=%v: efficiency %v, campaign %v",
						s.MCUFreqHz/1e6, n, db, rep.Efficiency, want))
				}
			}
		}
		// The compute alone, interleaved with the offloads so both medians
		// see the same machine.
		for i := 0; i < 4; i++ {
			t0 := time.Now()
			if _, err := cluster.RunJob(cfg, devrt.Accel, compute, 2_000_000_000); err != nil {
				return nil, err
			}
			t1 := time.Now()
			e.rec.span("cluster.RunJob", "job", 0, t0, t1, nil)
			alone = append(alone, ms(t1.Sub(t0)))
		}
	}
	e.gate.record("System.Offload reproduces the campaign's Fig. 5b", mismatch)
	off := median(offloads)
	return map[string]float64{"core.offload_ms": off, "core.link_compose_ms": off - median(alone)}, nil
}

// probeSweep times the engine's fixed costs: dispatching no-op jobs
// through sweep.Run on two workers, and single cache gets, cache puts and
// journal appends (both durable writes) of a result-sized value.
func probeSweep(ctx context.Context, e probeEnv) (map[string]float64, error) {
	const n = 64
	jobs := make([]sweep.Job[int], 1000)
	for i := range jobs {
		jobs[i] = sweep.Job[int]{Key: fmt.Sprint("noop|", i), Run: func() (int, error) { return i, nil }}
	}
	eng := sweep.New(sweep.Config{Workers: workers})
	var dispatch []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := sweep.Run(eng, jobs); err != nil {
			return nil, err
		}
		t1 := time.Now()
		e.rec.span("sweep.Run (no-op jobs)", "layer", 0, t0, t1, map[string]any{"jobs": len(jobs)})
		dispatch = append(dispatch, us(t1.Sub(t0))/float64(len(jobs)))
	}

	value := make([]uint64, 24) // about the JSON size of a measurement result
	for i := range value {
		value[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	key := func(i int) string { return fmt.Sprintf("bench|probe|%d", i) }
	cache, err := sweep.Open(e.path("sweep-cache"))
	if err != nil {
		return nil, err
	}
	var puts, gets, appends []float64
	phase := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := cache.Put(key(i), value); err != nil {
			return nil, err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	e.rec.span("Cache.Put", "layer", 0, phase, time.Now(), map[string]any{"ops": n})
	var missing error
	phase = time.Now()
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < n; i++ {
			var out []uint64
			t0 := time.Now()
			ok := cache.Get(key(i), &out)
			gets = append(gets, us(time.Since(t0)))
			if !ok || len(out) != len(value) {
				missing = fmt.Errorf("cache lost %s", key(i))
			}
		}
	}
	e.rec.span("Cache.Get", "layer", 0, phase, time.Now(), map[string]any{"ops": 4 * n})
	e.gate.record("cache returns what was put", missing)
	j, err := sweep.OpenJournal(e.path("sweep.journal"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	phase = time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := j.Append(key(i), value); err != nil {
			return nil, err
		}
		appends = append(appends, us(time.Since(t0)))
	}
	e.rec.span("Journal.Append", "layer", 0, phase, time.Now(), map[string]any{"ops": n})
	return map[string]float64{
		"sweep.dispatch_us":       median(dispatch),
		"sweep.cache_get_us":      median(gets),
		"sweep.cache_put_us":      median(puts),
		"sweep.journal_append_us": median(appends),
	}, nil
}

// probeWire times the serving path's per-point job reconstruction with
// the build memo warm, and the client-side fold of a remote campaign over
// a canned batch runner that answers from the campaign's cache.
func probeWire(ctx context.Context, e probeEnv) (map[string]float64, error) {
	specs, err := paper.SuiteSpecs("measure", false, false, 1)
	if err != nil {
		return nil, err
	}
	cache, err := sweep.Open(e.path("cache-j2"))
	if err != nil {
		return nil, err
	}
	raws := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		job, err := paper.BuildSpecJob(s)
		if err != nil {
			return nil, err
		}
		if !cache.Get(job.Key, &raws[i]) {
			return nil, fmt.Errorf("campaign cache has no entry for %s/%s", s.Kernel, s.Config)
		}
	}
	var build []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, s := range specs {
			if _, err := paper.BuildSpecJob(s); err != nil {
				return nil, err
			}
		}
		build = append(build, us(time.Since(t0))/float64(len(specs)))
	}

	canned := func(_ context.Context, got []paper.JobSpec) ([]json.RawMessage, error) {
		if len(got) != len(specs) {
			return nil, fmt.Errorf("fold asked for %d points, canned %d", len(got), len(specs))
		}
		return raws, nil
	}
	suite := kernels.PaperSuite()
	var fold []float64
	var m *paper.Measurements
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		if m, err = paper.MeasureRemoteBatch(ctx, canned, suite, false, false); err != nil {
			return nil, err
		}
		t1 := time.Now()
		e.rec.span("paper.MeasureRemoteBatch", "layer", 0, t0, t1, nil)
		fold = append(fold, ms(t1.Sub(t0)))
	}
	var buf bytes.Buffer
	err = renderRemote(&buf, m)
	if err == nil {
		err = checkOutput(buf.Bytes(), goldenRemoteSHA256)
	}
	e.gate.record("fold of the cached campaign renders the golden tables", err)
	return map[string]float64{"paper.spec_build_us": median(build), "paper.fold_ms": median(fold)}, nil
}

// probeService measures the serving layer on the real hetsimd: one
// uncontended client on a warm server (latency per point and wire bytes),
// then two clients on a cold one (single-flight, cache and admission
// counters from /v1/stats).
func probeService(ctx context.Context, e probeEnv) (map[string]float64, error) {
	const warmRuns = 10
	v := map[string]float64{}
	err := withServer(ctx, e, "hetsimd-warm", e.path("cache-j2"), func(srv *server) error {
		tr := &countingTransport{base: newTransport()}
		defer tr.CloseIdleConnections()
		cl := &serve.Client{BaseURL: srv.url, HTTP: &http.Client{Transport: tr}}
		st0, err := srv.stats(ctx)
		if err != nil {
			return err
		}
		var walls []float64
		var buf bytes.Buffer
		for i := 0; i < warmRuns; i++ {
			t0 := time.Now()
			wall, err := remoteCampaign(ctx, cl, &buf)
			e.rec.span("remote campaign (warm)", "campaign", 0, t0, t0.Add(wall), nil)
			if err == nil {
				err = checkOutput(buf.Bytes(), goldenRemoteSHA256)
			}
			e.gate.record("remote campaign", err)
			walls = append(walls, wall.Seconds())
		}
		st1, err := srv.stats(ctx)
		if err != nil {
			return err
		}
		points := float64(warmRuns * 60)
		v["serve.warm_point_us"] = median(walls) / 60 * 1e6
		v["serve.wire_bytes_per_point"] = float64(tr.bytes.Load()) / points
		v["sweep.executed.service-warm"] = float64(st1.Executed-st0.Executed) / warmRuns
		v["sweep.cache_hits.service-warm"] = float64(st1.CacheHits-st0.CacheHits) / warmRuns
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = withServer(ctx, e, "hetsimd-cold", "", func(srv *server) error {
		t0 := time.Now()
		cold := coldSteps(ctx, srv.url, e.cfg.seed, time.Hour, 2)
		e.rec.span("service-cold steps", "campaign", 0, t0, time.Now(), map[string]any{"campaigns": len(cold.walls)})
		e.gate.add(cold.gate)
		st, err := srv.stats(ctx)
		if err != nil {
			return err
		}
		if len(cold.walls) == 0 || len(cold.points) == 0 || st.BatchJobs == 0 {
			return errors.New("no cold batch completed")
		}
		keys := float64(len(cold.points))
		perKey := float64(st.Executed) / keys
		if perKey != 1 {
			e.gate.record("single-flight", fmt.Errorf("%d executions for %v keys", st.Executed, keys))
		}
		v["serve.exec_per_key"] = perKey
		v["serve.dedup_frac"] = float64(st.Deduped) / float64(st.BatchJobs)
		v["serve.cache_hit_frac"] = float64(st.CacheHits) / float64(st.BatchJobs)
		v["serve.rejected"] = float64(st.RejectedQueue + st.RejectedRate + st.RejectedQuota + st.RejectedDrain)
		v["serve.retries"] = float64(st.ExecRetries + st.PutRetries + cold.reconnects)
		campaigns := float64(len(cold.walls))
		v["sweep.executed.service-cold"] = float64(st.Executed) / campaigns
		v["sweep.cache_hits.service-cold"] = float64(st.CacheHits) / campaigns
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// withServer runs fn against a hetsimd on cacheDir (empty: a fresh one in
// the server's sandbox), then drains it; an unclean drain fails the gate.
func withServer(ctx context.Context, e probeEnv, name, cacheDir string, fn func(*server) error) error {
	sb, err := newSandbox(e.dir, name)
	if err != nil {
		return err
	}
	if cacheDir == "" {
		cacheDir = sb.path("cache")
	}
	srv, err := startServer(ctx, sb, e.cfg.hetsimd(), cacheDir)
	if err != nil {
		return err
	}
	err = fn(srv)
	e.gate.record("hetsimd drain", srv.stop())
	return err
}
