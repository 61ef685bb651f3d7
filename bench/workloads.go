package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/serve"
)

// Load shape. The runner has two cores: one measured child at a time with
// two simulation workers, and two closed-loop service clients.
const (
	workers       = 2
	clients       = 2
	setupLaunches = 5  // set-up is timed this many times; the median is reported
	maxColdSteps  = 50 // service-cold stops after this many steps even with time left
	localReruns   = 8  // service-cold points re-simulated locally by the gate
)

// fits reports whether one more iteration, taking as long as the last one,
// still ends within the measuring window that began at start. The first
// iteration always fits, so every run measures at least one campaign.
func fits(start time.Time, last, seconds time.Duration) bool {
	return time.Since(start)+last <= seconds
}

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"campaign-cold", "campaign-warm", "service-warm", "service-cold"}

// runConfig is what one benchmark run needs to know.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	bin      string // directory holding the hetexp and hetsimd binaries
	tmp      string // parent directory of every sandbox
}

func (c runConfig) hetexp() string  { return filepath.Join(c.bin, "hetexp") }
func (c runConfig) hetsimd() string { return filepath.Join(c.bin, "hetsimd") }

// loopResult is the raw outcome of a workload's set-up and timed loop.
type loopResult struct {
	Campaigns []float64 `json:"campaign_s"` // wall seconds, one per campaign
	RSS       []float64 `json:"rss_mb"`     // per hetexp campaign, or hetsimd's high-water mark at loop end
	CPU       float64   `json:"cpu_s_total"`
	Busy      float64   `json:"busy_s"` // the seconds campaigns_per_s divides by
	Setups    []float64 `json:"setup_s"`
	gate      gate
}

// endToEndValues reduces a loop to the end-to-end metrics.
func endToEndValues(r loopResult) map[string]float64 {
	n := float64(len(r.Campaigns))
	return map[string]float64{
		"campaign_s":      median(r.Campaigns),
		"cpu_s":           r.CPU / n,
		"campaigns_per_s": n / r.Busy,
		"peak_rss_mb":     median(r.RSS),
		"setup_s":         median(r.Setups),
	}
}

// runWorkload performs one workload's set-up and timed loop.
func runWorkload(ctx context.Context, c runConfig) (loopResult, error) {
	switch c.workload {
	case "campaign-cold":
		return campaignLoop(ctx, c, true)
	case "campaign-warm":
		return campaignLoop(ctx, c, false)
	case "service-warm":
		return serviceLoop(ctx, c, true)
	case "service-cold":
		return serviceLoop(ctx, c, false)
	}
	return loopResult{}, fmt.Errorf("unknown workload %q", c.workload)
}

const mb = 1 << 20

// hetexpCampaign runs `hetexp -exp all -j 2` on cacheDir and applies the
// correctness gate to it.
func hetexpCampaign(ctx context.Context, c runConfig, sb *sandbox, cacheDir string, cold bool) (childResult, runStats, error) {
	statsPath := sb.path("stats.json")
	res, err := runChild(ctx, sb, c.hetexp(), "-exp", "all", "-j", fmt.Sprint(workers),
		"-cache-dir", cacheDir, "-stats-json", statsPath)
	if err != nil {
		return res, runStats{}, err
	}
	stats, err := os.ReadFile(statsPath)
	if err != nil {
		return res, runStats{}, err
	}
	st, err := checkCampaign(res.stdout, stats, cold)
	return res, st, err
}

// campaignLoop times back-to-back `hetexp -exp all -j 2` campaigns. Cold:
// each on a fresh empty cache. Warm: each on one cache filled by an untimed
// cold campaign. hetexp has no server to wait for, so its set-up is a
// launch that opens and scrubs the workload's starting cache and exits.
func campaignLoop(ctx context.Context, c runConfig, cold bool) (loopResult, error) {
	var r loopResult
	var shared string
	if !cold {
		sb, err := newSandbox(c.tmp, "fill")
		if err != nil {
			return r, err
		}
		shared = sb.path("cache")
		if _, _, err := hetexpCampaign(ctx, c, sb, shared, true); err != nil {
			return r, fmt.Errorf("filling the warm cache: %w", err)
		}
	}
	cacheFor := func(sb *sandbox) string {
		if cold {
			return sb.path("cache")
		}
		return shared
	}
	for i := 0; i < setupLaunches; i++ {
		sb, err := newSandbox(c.tmp, "setup")
		if err != nil {
			return r, err
		}
		res, err := runChild(ctx, sb, c.hetexp(), "-scrub", "-cache-dir", cacheFor(sb))
		if err != nil {
			return r, err
		}
		r.Setups = append(r.Setups, res.wall.Seconds())
		if err := sb.remove(); err != nil {
			return r, err
		}
	}
	start := time.Now()
	var last time.Duration
	for fits(start, last, c.seconds) {
		sb, err := newSandbox(c.tmp, "campaign")
		if err != nil {
			return r, err
		}
		res, _, err := hetexpCampaign(ctx, c, sb, cacheFor(sb), cold)
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		last = res.wall
		r.Campaigns = append(r.Campaigns, res.wall.Seconds())
		r.RSS = append(r.RSS, float64(res.maxRSS)/mb)
		r.CPU += res.cpu.Seconds()
		r.Busy += res.wall.Seconds()
		r.gate.record("hetexp campaign", err)
		if err := sb.remove(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// serviceLoop times hetsimd under two closed-loop clients. Warm: the
// server's cache holds the seed-1 paper matrix and each client repeats the
// `hetexp -remote` campaign. Cold: an empty cache, and at each step both
// clients submit the same fresh-seed measurement matrix.
func serviceLoop(ctx context.Context, c runConfig, warm bool) (loopResult, error) {
	var r loopResult
	root, err := newSandbox(c.tmp, "service")
	if err != nil {
		return r, err
	}
	shared := root.path("cache")
	if warm {
		// `-exp table1` simulates exactly the measurement matrix the
		// remote campaign asks for.
		if _, err := runChild(ctx, root, c.hetexp(), "-exp", "table1", "-j", fmt.Sprint(workers), "-cache-dir", shared); err != nil {
			return r, fmt.Errorf("filling the server cache: %w", err)
		}
	}
	var srv *server
	defer func() {
		if srv != nil {
			_ = srv.stop() // error path: the run is already failing
		}
	}()
	for i := 0; i < setupLaunches; i++ {
		if srv != nil {
			r.gate.record("hetsimd drain", srv.stop())
			srv = nil
		}
		sb, err := newSandbox(c.tmp, "hetsimd")
		if err != nil {
			return r, err
		}
		cache := shared
		if !warm {
			cache = sb.path("cache")
		}
		if srv, err = startServer(ctx, sb, c.hetsimd(), cache); err != nil {
			return r, err
		}
		r.Setups = append(r.Setups, srv.ready.Seconds())
	}

	cpu0, err := srv.cpu()
	if err != nil {
		return r, err
	}
	start := time.Now()
	var cold coldResult
	if warm {
		r.Campaigns, r.gate = warmClients(ctx, srv.url, c.seconds)
	} else {
		cold = coldSteps(ctx, srv.url, c.seed, c.seconds, maxColdSteps)
		r.Campaigns = cold.walls
		r.gate.add(cold.gate)
	}
	r.Busy = time.Since(start).Seconds()
	cpu1, err := srv.cpu()
	if err != nil {
		return r, err
	}
	hwm, err := srv.peakRSS()
	if err != nil {
		return r, err
	}
	r.CPU = (cpu1 - cpu0).Seconds()
	r.RSS = []float64{float64(hwm) / mb}
	r.gate.record("hetsimd drain", srv.stop())
	srv = nil
	if ctx.Err() != nil {
		return r, ctx.Err()
	}
	if len(r.Campaigns) == 0 {
		return r, errors.New("no campaign completed")
	}
	if !warm {
		rerunLocally(cold.points, c.seed, localReruns, &r.gate)
	}
	return r, nil
}

// warmClients runs the `hetexp -remote -exp all` campaign in a closed loop
// from each client until the time is up: MeasureRemoteBatch over
// Client.RunBatch, then the rendered tables, checked against the golden
// digest outside the timed span.
func warmClients(ctx context.Context, url string, seconds time.Duration) ([]float64, gate) {
	var (
		mu    sync.Mutex
		walls []float64
		g     gate
		wg    sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := newTransport()
			defer tr.CloseIdleConnections()
			cl := &serve.Client{BaseURL: url, HTTP: &http.Client{Transport: tr}}
			var (
				buf  bytes.Buffer
				wall time.Duration
				err  error
			)
			for fits(start, wall, seconds) && ctx.Err() == nil {
				wall, err = remoteCampaign(ctx, cl, &buf)
				if err == nil {
					err = checkOutput(buf.Bytes(), goldenRemoteSHA256)
				}
				mu.Lock()
				walls = append(walls, wall.Seconds())
				g.record("remote campaign", err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return walls, g
}

// remoteCampaign is one `hetexp -remote URL -exp all`: build the suite,
// measure it through one batch submission, render into buf.
func remoteCampaign(ctx context.Context, cl *serve.Client, buf *bytes.Buffer) (time.Duration, error) {
	t0 := time.Now()
	buf.Reset()
	m, err := paper.MeasureRemoteBatch(ctx, cl.RunBatch, kernels.PaperSuite(), false, false)
	if err == nil {
		err = renderRemote(buf, m)
	}
	return time.Since(t0), err
}

// point is one served measurement, kept for the local re-run check.
type point struct {
	spec paper.JobSpec
	raw  json.RawMessage
}

type coldResult struct {
	walls      []float64
	points     []point
	reconnects uint64
	gate       gate
}

// stepSeed derives the input seed of service-cold step i from the run
// seed; distinct steps get distinct seeds, none of them 0 (which the wire
// format maps to the paper's default seed 1).
func stepSeed(seed uint64, step int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(step+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z < 2 {
		z += 2
	}
	return z
}

// coldSteps runs service-cold: at each step both clients submit the
// measurement matrix of one fresh input seed at once, so every point is
// either led or deduplicated by single-flight. The gate checks that both
// clients received byte-identical results for every point.
func coldSteps(ctx context.Context, url string, seed uint64, seconds time.Duration, maxSteps int) coldResult {
	var res coldResult
	cls := make([]*serve.Client, clients)
	for i := range cls {
		tr := newTransport()
		defer tr.CloseIdleConnections()
		cls[i] = &serve.Client{BaseURL: url, HTTP: &http.Client{Transport: tr}}
	}
	start := time.Now()
	var last time.Duration
	for step := 0; step < maxSteps && fits(start, last, seconds) && ctx.Err() == nil; step++ {
		t0 := time.Now()
		specs, err := paper.SuiteSpecs("measure", false, false, stepSeed(seed, step))
		if err != nil {
			res.gate.record("suite expansion", err)
			break
		}
		raws := make([][]json.RawMessage, clients)
		errs := make([]error, clients)
		walls := make([]time.Duration, clients)
		var wg sync.WaitGroup
		for i := range cls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				raws[i], errs[i] = cls[i].RunBatch(ctx, specs)
				walls[i] = time.Since(t0)
			}(i)
		}
		wg.Wait()
		last = time.Since(t0)
		if ctx.Err() != nil {
			break
		}
		var mismatch error
		if errs[0] == nil && errs[1] == nil {
			mismatch = sameResults(specs, raws[0], raws[1])
		}
		for i := range cls {
			res.walls = append(res.walls, walls[i].Seconds())
			res.gate.record("cold batch", errors.Join(errs[i], mismatch))
		}
		if errs[0] == nil && len(raws[0]) == len(specs) {
			for j, s := range specs {
				res.points = append(res.points, point{s, raws[0][j]})
			}
		}
	}
	for _, cl := range cls {
		res.reconnects += cl.Reconnects()
	}
	return res
}

// sameResults checks that two clients got byte-identical results for
// every point of a batch.
func sameResults(specs []paper.JobSpec, a, b []json.RawMessage) error {
	if len(a) != len(specs) || len(b) != len(specs) {
		return fmt.Errorf("got %d and %d results for %d points", len(a), len(b), len(specs))
	}
	for i := range specs {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Errorf("clients disagree on %s/%s seed %d", specs[i].Kernel, specs[i].Config, specs[i].Seed)
		}
	}
	return nil
}

// rerunLocally re-simulates a seeded sample of served points in this
// process through paper.BuildSpecJob and checks the served bytes.
func rerunLocally(pts []point, seed uint64, n int, g *gate) {
	rng := seed | 1
	for i := 0; i < n && i < len(pts); i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := i + int(rng%uint64(len(pts)-i))
		pts[i], pts[j] = pts[j], pts[i]
		p := pts[i]
		what := fmt.Sprintf("local re-run of %s/%s seed %d", p.spec.Kernel, p.spec.Config, p.spec.Seed)
		g.record(what, rerun(p))
	}
}

func rerun(p point) error {
	job, err := paper.BuildSpecJob(p.spec)
	if err != nil {
		return err
	}
	raw, err := job.Run()
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, p.raw) {
		return fmt.Errorf("served %d bytes differ from the local %d bytes", len(p.raw), len(raw))
	}
	return nil
}
