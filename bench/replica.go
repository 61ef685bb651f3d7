package main

import (
	"bytes"
	"fmt"
	"time"

	"hetsim/internal/kernels"
	"hetsim/internal/paper"
	"hetsim/internal/sensor"
	"hetsim/internal/sweep"
)

// replicaRun is the outcome of one in-process campaign replica.
type replicaRun struct {
	wall   time.Duration
	exp    map[string]time.Duration // per experiment, by its paper.*_s metric name
	render time.Duration
	jobs   time.Duration // sum of the exact job spans; one worker only
	stats  sweep.Stats
	out    []byte
}

// runReplica repeats cmd/hetexp's call sequence for a local, unobserved
// `-exp all` campaign at the given worker count, on the cache in cacheDir,
// with a span around the campaign, every experiment (paper.*With call),
// every render and every job. With one worker a job runs from the previous
// completion to its own, so its span is exact; with more, only completion
// instants are known.
func runReplica(workers int, cacheDir string, rec *recorder) (replicaRun, error) {
	r := replicaRun{exp: map[string]time.Duration{}}
	cache, err := sweep.Open(cacheDir)
	if err != nil {
		return r, err
	}
	var last time.Time // the previous completion, or the experiment's start
	eng := sweep.New(sweep.Config{Workers: workers, Cache: cache, Progress: func(ev sweep.Event) {
		now := time.Now()
		args := map[string]any{"key": ev.Key, "hit": ev.Hit}
		if workers == 1 {
			rec.span("job", "job", 1, last, now, args)
			r.jobs += now.Sub(last)
		} else {
			rec.instant("job done", "job", 0, now, args)
		}
		last = now
	}})

	suite := kernels.PaperSuite()
	mm, cnn, hog := suite[0], suite[7], suite[len(suite)-1] // as cmd/hetexp picks them
	var (
		out    bytes.Buffer
		m      *paper.Measurements
		ext    []paper.ExtAblationRow
		banks  []paper.BankSweepPoint
		la     []paper.LinkAblationPoint
		sc     [2][]paper.ScalingPoint
		sa     []paper.SensorAblationPoint
		series []paper.Fig5bSeries
	)
	section := func(title string, body func()) func() error {
		return func() error {
			fmt.Fprintln(&out, title)
			body()
			fmt.Fprintln(&out)
			return nil
		}
	}
	steps := []struct {
		metric string
		run    func() error
		render func() error
	}{
		{"paper.measure_s",
			func() (err error) { m, err = paper.MeasureWith(eng, suite); return err },
			func() error { return renderRemote(&out, m) }},
		{"paper.ext_ablation_s",
			func() (err error) { ext, err = paper.ExtensionAblationWith(eng, suite); return err },
			section("== Ablation: per-extension contribution (beyond paper) ==", func() { paper.RenderExtensionAblation(&out, ext) })},
		{"paper.bank_sweep_s",
			func() (err error) { banks, err = paper.BankSweepWith(eng, mm); return err },
			section("== Ablation: TCDM bank count (beyond paper) ==", func() { paper.RenderBankSweep(&out, mm.Name, banks) })},
		{"paper.link_ablation_s",
			func() (err error) { la, err = paper.LinkAblationWith(eng, mm, m); return err },
			section("== Ablation: decoupled link clock (Section V) ==", func() { paper.RenderLinkAblation(&out, mm.Name, la) })},
		{"paper.scaling_s",
			func() (err error) {
				if sc[0], err = paper.ScalingStudyWith(eng, mm); err != nil {
					return err
				}
				sc[1], err = paper.ScalingStudyWith(eng, cnn)
				return err
			},
			section("== Ablation: 8-core cluster scaling (beyond paper) ==", func() {
				paper.RenderScalingStudy(&out, mm.Name, sc[0])
				paper.RenderScalingStudy(&out, cnn.Name, sc[1])
			})},
		{"paper.sensor_ablation_s",
			func() (err error) {
				sa, err = paper.SensorAblationWith(eng, hog, m, sensor.QVGACamera(), 8e6)
				return err
			},
			section("== Ablation: sensor data path (Section V) ==", func() { paper.RenderSensorAblation(&out, hog.Name, sa) })},
		{"paper.fig5b_s",
			func() (err error) { series, err = paper.Figure5bWith(eng, mm, m); return err },
			section("== Figure 5b: offload-cost amortization ==", func() { paper.RenderFigure5b(&out, mm.Name, series) })},
	}

	start := time.Now()
	for _, s := range steps {
		t0 := time.Now()
		last = t0
		err := s.run()
		t1 := time.Now()
		rec.span(s.metric, "experiment", 0, t0, t1, nil)
		r.exp[s.metric] += t1.Sub(t0)
		if err != nil {
			return r, fmt.Errorf("%s: %w", s.metric, err)
		}
		if err := s.render(); err != nil {
			return r, err
		}
		t2 := time.Now()
		rec.span("paper.render", "render", 0, t1, t2, nil)
		r.render += t2.Sub(t1)
	}
	end := time.Now()
	rec.span("campaign", "campaign", 0, start, end, map[string]any{"workers": workers})
	r.wall = end.Sub(start)
	r.stats = eng.Stats()
	r.out = out.Bytes()
	return r, nil
}
