package core_test

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/fault"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/obs"
	"hetsim/internal/paper"
	"hetsim/internal/power"
	"hetsim/internal/sensor"
	"hetsim/internal/trace"
)

// measuredCompute is the compute artifact of one direct offload of the job
// on the default cluster: cycles and activity do not depend on the host,
// the link or the operating point.
func measuredCompute(t *testing.T, job loader.Job) core.Compute {
	t.Helper()
	_, rep, err := testSystem(t, 16e6).Offload(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.Compute{Cycles: rep.ComputeCycles, Activity: rep.Activity}
}

// envelopeConfig is the Fig. 5b system at one host frequency: the
// accelerator at the best operating point of the 10 mW envelope.
func envelopeConfig(t *testing.T, mcuHz float64, act power.Activity) core.Config {
	t.Helper()
	v, fp, ok := power.BestOp(paper.EnvelopeW-power.STM32L476.RunPowerW(mcuHz), act)
	if !ok {
		t.Fatalf("envelope infeasible at %g MHz", mcuHz/1e6)
	}
	return core.Config{Host: power.STM32L476, HostFreqHz: mcuHz, Lanes: 4, AccVdd: v, AccFreqHz: fp}
}

// checkCompose offloads and composes the same sequence of options on a
// fresh system pair and requires identical reports and link state.
func checkCompose(t *testing.T, cfg core.Config, job loader.Job, c core.Compute, seq []core.Options) {
	t.Helper()
	// Two identical systems: one offloads, the other composes. Their link
	// meters must advance in lockstep.
	direct, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range seq {
		_, want, err := direct.Offload(job, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := composed.Compose(job, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: composed report differs from the offload's\n got %+v\nwant %+v", opts, got, want)
		}
	}
	if !reflect.DeepEqual(composed.Link, direct.Link) {
		t.Fatalf("link state differs after the sequence\n got %+v\nwant %+v", composed.Link, direct.Link)
	}
}

// paperKernel picks the paper-size kernel, or the reduced one under -short.
func paperKernel(t *testing.T, i int) *kernels.Instance {
	if testing.Short() {
		return kernels.SmallSuite()[i]
	}
	return kernels.PaperSuite()[i]
}

// TestComposeMatchesOffload is the compose differential: a report composed
// from the measured compute is reflect.DeepEqual to a direct Offload's at
// every Fig. 5b point, every link-ablation configuration and both sensor
// paths, and a few option combinations beyond them.
func TestComposeMatchesOffload(t *testing.T) {
	mm, _ := kernelJob(t, paperKernel(t, 0), 1)
	mmC := measuredCompute(t, mm)

	t.Run("fig5b", func(t *testing.T) {
		for _, f := range paper.Fig5bMCUFreqsHz {
			var seq []core.Options
			for _, n := range paper.Fig5bIterations {
				seq = append(seq, core.Options{Iterations: n}, core.Options{Iterations: n, DoubleBuffer: true})
			}
			checkCompose(t, envelopeConfig(t, f, mmC.Activity), mm, mmC, seq)
		}
	})
	t.Run("link", func(t *testing.T) {
		for _, f := range []float64{2e6, 4e6, 8e6} {
			for _, linkHz := range []float64{0, 32e6} {
				cfg := envelopeConfig(t, f, mmC.Activity)
				cfg.LinkClockHz = linkHz
				checkCompose(t, cfg, mm, mmC, []core.Options{{Iterations: 64, DoubleBuffer: true}})
			}
		}
	})
	t.Run("sensor", func(t *testing.T) {
		hog, _ := kernelJob(t, paperKernel(t, 9), 1)
		hogC := measuredCompute(t, hog)
		cam := sensor.QVGACamera()
		var seq []core.Options
		for _, path := range []sensor.Path{sensor.HostPath, sensor.DirectPath} {
			at, ej, via := cam.Feed(path)
			seq = append(seq, core.Options{Iterations: 64, DoubleBuffer: true,
				Sensor: &core.SensorFeed{AcquireTime: at, SampleEnergyJ: ej, ViaLink: via}})
		}
		checkCompose(t, envelopeConfig(t, 8e6, hogC.Activity), hog, hogC, seq)
	})
	t.Run("options", func(t *testing.T) {
		cfg := envelopeConfig(t, 16e6, mmC.Activity)
		crc := cfg
		crc.LinkCRC = true
		spi := cfg
		spi.Lanes = 1
		seq := []core.Options{
			{Iterations: 7, VerifyDescriptor: true},
			{Iterations: 7, HostTaskFraction: 0.3, DoubleBuffer: true},
			{Iterations: 3, Retries: 2, WatchdogCycles: 4 * mmC.Cycles},
		}
		for _, c := range []core.Config{cfg, crc, spi} {
			checkCompose(t, c, mm, mmC, seq)
		}
	})
}

// TestComposeRejectsDeviceOptions checks that Compose refuses every option
// that needs a simulated device, and a compute the direct run's first
// attempt could not complete.
func TestComposeRejectsDeviceOptions(t *testing.T) {
	job, _ := kernelJob(t, kernels.MatMulChar(16), 1)
	sys := testSystem(t, 16e6)
	c := core.Compute{Cycles: 1000}
	for name, opts := range map[string]core.Options{
		"Faults":   {Faults: fault.New(fault.Config{Seed: 1})},
		"Tracer":   {Tracer: trace.New(io.Discard, 16)},
		"Obs":      {Obs: obs.NewAttribution(4)},
		"Timeline": {Timeline: obs.NewTimeline()},
	} {
		if _, err := sys.Compose(job, opts, c); !errors.Is(err, core.ErrNeedsDevice) {
			t.Errorf("%s: err = %v, want ErrNeedsDevice", name, err)
		}
	}
	if _, err := sys.Compose(job, core.Options{WatchdogCycles: 999}, c); err == nil {
		t.Error("a compute longer than the watchdog composed without error")
	}
	if n := sys.Link.Transactions; n != 0 {
		t.Errorf("rejected composes charged %d link transaction(s)", n)
	}
	if _, err := sys.Compose(job, core.Options{WatchdogCycles: 1000}, c); err != nil {
		t.Errorf("a compute within the watchdog: %v", err)
	}
}
