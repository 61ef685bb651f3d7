package core_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hetsim/internal/asm"
	"hetsim/internal/core"
	"hetsim/internal/cpu"
	"hetsim/internal/devrt"
	"hetsim/internal/fault"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/power"
	"hetsim/internal/trace"
)

func testSystem(t *testing.T, mcuHz float64) *core.System {
	t.Helper()
	return testSystemOp(t, mcuHz, 0.8, 200e6)
}

func testSystemOp(t *testing.T, mcuHz, vdd, accHz float64) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Host:       power.STM32L476,
		HostFreqHz: mcuHz,
		Lanes:      4,
		AccVdd:     vdd,
		AccFreqHz:  accHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func kernelJob(t *testing.T, k *kernels.Instance, seed uint64) (loader.Job, []byte) {
	t.Helper()
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Input(seed)
	job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args()}
	return job, k.Golden(in)
}

func TestOffloadEndToEndMatchesGolden(t *testing.T) {
	sys := testSystem(t, 16e6)
	for _, k := range []*kernels.Instance{kernels.MatMulChar(16), kernels.SVM(kernels.SVMRBF, 16, 8, 6)} {
		job, want := kernelJob(t, k, 9)
		out, rep, err := sys.Offload(job, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: offloaded output differs from golden", k.Name)
		}
		if rep.ComputeCycles == 0 || rep.ComputeTime <= 0 || rep.BinTime <= 0 {
			t.Fatalf("%s: degenerate report %+v", k.Name, rep)
		}
		if rep.Efficiency <= 0 || rep.Efficiency > 1 {
			t.Fatalf("%s: efficiency %v out of range", k.Name, rep.Efficiency)
		}
		if rep.Energy.TotalJ() <= 0 {
			t.Fatalf("%s: no energy accounted", k.Name)
		}
	}
}

func TestOffloadAmortization(t *testing.T) {
	// Efficiency must be monotone non-decreasing in iterations per offload
	// and approach a limit; double buffering must not hurt.
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(32)
	job, _ := kernelJob(t, k, 2)
	prev := 0.0
	for _, n := range []int{1, 4, 16, 64} {
		_, rep, err := sys.Offload(job, core.Options{Iterations: n})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Efficiency+1e-12 < prev {
			t.Fatalf("efficiency decreased at n=%d: %v -> %v", n, prev, rep.Efficiency)
		}
		prev = rep.Efficiency
	}
	_, plain, err := sys.Offload(job, core.Options{Iterations: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, db, err := sys.Offload(job, core.Options{Iterations: 64, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if db.Efficiency < plain.Efficiency {
		t.Fatalf("double buffering hurt: %v < %v", db.Efficiency, plain.Efficiency)
	}
	if db.TotalTime > plain.TotalTime {
		t.Fatalf("double buffering slower: %v > %v", db.TotalTime, plain.TotalTime)
	}
}

func TestBaselineMatchesGoldenAndIsSlower(t *testing.T) {
	sys := testSystem(t, 32e6)
	k := kernels.MatMulChar(32)
	prog, err := k.Build(isa.CortexM4, devrt.Host)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Input(4)
	base, err := sys.Baseline(loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Args: k.Args()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Out, k.Golden(in)) {
		t.Fatal("baseline output differs from golden")
	}
	// Offloaded compute at 200 MHz / 4 cores must beat the 32 MHz MCU.
	job, _ := kernelJob(t, k, 4)
	_, rep, err := sys.Offload(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := base.Seconds / rep.ComputeTime
	if speedup < 10 {
		t.Fatalf("accelerated speedup = %.1f, expected >> 10", speedup)
	}
}

func TestSlowLinkPlateau(t *testing.T) {
	// With a very slow MCU (hence slow SPI), efficiency should plateau well
	// below 1 even with double buffering — the Fig. 5b bandwidth limit.
	// Accelerator operating points follow the 10 mW envelope: a slow MCU
	// leaves a big PULP budget (fast accelerator, even slower relative
	// link), a 26 MHz MCU leaves ~1.4 mW (slow accelerator).
	slow := testSystemOp(t, 2e6, 0.8, 220e6)
	fast := testSystemOp(t, 26e6, 0.6, 45e6)
	k := kernels.MatMulChar(64)
	job, _ := kernelJob(t, k, 3)
	_, repSlow, err := slow.Offload(job, core.Options{Iterations: 256, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	_, repFast, err := fast.Offload(job, core.Options{Iterations: 256, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if repSlow.Efficiency >= repFast.Efficiency {
		t.Fatalf("slow link (%v) should be less efficient than fast (%v)",
			repSlow.Efficiency, repFast.Efficiency)
	}
	if repFast.Efficiency < 0.5 {
		t.Errorf("fast-link efficiency at 256 iterations = %v, expected to approach 1", repFast.Efficiency)
	}
}

func TestNewSystemValidation(t *testing.T) {
	bad := []core.Config{
		{Host: power.STM32L476, HostFreqHz: 500e6, Lanes: 4, AccVdd: 0.8, AccFreqHz: 100e6}, // over MCU fmax
		{Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 2, AccVdd: 0.8, AccFreqHz: 100e6},  // bad lanes
		{Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4, AccVdd: 0.6, AccFreqHz: 400e6},  // over acc fmax
	}
	for i, cfg := range bad {
		if _, err := core.NewSystem(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestTotalComputePower(t *testing.T) {
	sys := testSystem(t, 16e6)
	p := sys.TotalComputePowerW(power.Activity{CoreRun: 4, TCDM: 1.4})
	if p <= 0 || p > 20e-3 {
		t.Fatalf("implausible compute power %v W", p)
	}
}

func TestHostTaskFraction(t *testing.T) {
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(32)
	job, _ := kernelJob(t, k, 6)
	_, idle, err := sys.Offload(job, core.Options{Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, busy, err := sys.Offload(job, core.Options{Iterations: 8, HostTaskFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if busy.TotalTime <= idle.TotalTime {
		t.Errorf("a concurrent host task must slow the offload: %v vs %v",
			busy.TotalTime, idle.TotalTime)
	}
	if busy.Energy.MCUJ <= idle.Energy.MCUJ {
		t.Errorf("a busy host must burn more energy: %v vs %v",
			busy.Energy.MCUJ, idle.Energy.MCUJ)
	}
	// The accelerator-side compute is unaffected.
	if busy.ComputeCycles != idle.ComputeCycles {
		t.Error("host task must not change accelerator cycles")
	}
	if _, _, err := sys.Offload(job, core.Options{HostTaskFraction: 0.95}); err == nil {
		t.Error("fraction above 0.9 must be rejected")
	}
}

// hostBuild compiles the host-ISA fallback variant of a kernel.
func hostBuild(t *testing.T, k *kernels.Instance) *asm.Program {
	t.Helper()
	prog, err := k.Build(isa.CortexM4, devrt.Host)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestOffloadEnergyMatchesLinkMeter(t *testing.T) {
	// Satellite regression for the link-energy bug: Energy.SPIJ must equal
	// what the link itself metered (the 36-byte image header never crosses
	// the wire), not TransferEnergy(len(image)+DescSize).
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	job, _ := kernelJob(t, k, 9)
	_, rep, err := sys.Offload(job, core.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	metered := sys.Link.EnergyJ
	if diff := rep.Energy.SPIJ - metered; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("SPIJ %v != link meter %v (diff %v)", rep.Energy.SPIJ, metered, diff)
	}
	// The old formula charged the image header too; it must overestimate.
	old := sys.Link.Cfg.TransferEnergy(rep.BinaryBytes+0x40) +
		sys.Link.Cfg.TransferEnergy(rep.InBytes) +
		sys.Link.Cfg.TransferEnergy(rep.OutBytes)
	if rep.Energy.SPIJ >= old {
		t.Fatalf("SPIJ %v should be below the header-counting formula %v", rep.Energy.SPIJ, old)
	}
	// And the meter must agree with the link's own byte counters (every
	// payload here fits in one burst, so bursts == transactions).
	wire := sys.Link.TxBytes + sys.Link.RxBytes + sys.Link.Transactions*uint64(sys.Link.Cfg.CmdBytes)
	if want := float64(wire*8) * 25e-12; metered < want*(1-1e-12) || metered > want*(1+1e-12) {
		t.Fatalf("link meter %v inconsistent with wire bytes %d (%v)", metered, wire, want)
	}
}

func TestResilienceOptionsAreZeroCostWhenIdle(t *testing.T) {
	// Watchdog, retry budget and an attached never-firing injector must not
	// change a single reported number on a clean run.
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 5)
	plain := testSystem(t, 16e6)
	outP, repP, err := plain.Offload(job, core.Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	armed := testSystem(t, 16e6)
	outA, repA, err := armed.Offload(job, core.Options{
		Iterations:     4,
		WatchdogCycles: 5_000_000,
		Retries:        3,
		Faults:         fault.New(fault.Config{Seed: 1}), // all rates zero
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outP, want) || !bytes.Equal(outA, want) {
		t.Fatal("output differs from golden")
	}
	if !reflect.DeepEqual(repP, repA) {
		t.Fatalf("armed-but-idle resilience changed the report:\nplain %+v\narmed %+v", repP, repA)
	}
	if repA.Retries != 0 || repA.WatchdogTrips != 0 || repA.RecoveryTime != 0 || repA.RecoveryEnergyJ != 0 {
		t.Fatalf("clean run shows recovery: %+v", repA)
	}
}

func TestOffloadCRCRecoversLinkFaults(t *testing.T) {
	// With CRC framing, injected burst corruption is retransmitted and the
	// offload completes with the correct output; the repeats are priced.
	mk := func(crc bool) *core.System {
		sys, err := core.NewSystem(core.Config{
			Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4,
			AccVdd: 0.8, AccFreqHz: 200e6, LinkCRC: crc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 7)
	clean := mk(true)
	_, repClean, err := clean.Offload(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisy := mk(true)
	out, rep, err := noisy.Offload(job, core.Options{
		Faults: fault.New(fault.Config{Seed: 21, LinkCorruptRate: 1, MaxFaults: 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("CRC recovery produced wrong output")
	}
	if rep.Retransmits != 5 || rep.RetransmittedBytes == 0 {
		t.Fatalf("retransmissions invisible: %+v", rep)
	}
	if rep.TotalTime <= repClean.TotalTime || rep.Energy.SPIJ <= repClean.Energy.SPIJ {
		t.Fatalf("retransmissions must cost time and energy: %v/%v vs clean %v/%v",
			rep.TotalTime, rep.Energy.SPIJ, repClean.TotalTime, repClean.Energy.SPIJ)
	}
	if noisy.Link.Retransmits != 5 {
		t.Fatalf("link counter %d", noisy.Link.Retransmits)
	}
}

func TestOffloadWatchdogRetriesTransientHang(t *testing.T) {
	// One injected EOC hang: the watchdog trips, the host re-raises
	// fetch-enable, and the second attempt produces the correct output.
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 3)
	out, rep, err := sys.Offload(job, core.Options{
		WatchdogCycles: 2_000_000,
		Retries:        2,
		Faults:         fault.New(fault.Config{Seed: 4, EOCHangRate: 1, MaxFaults: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("retried offload produced wrong output")
	}
	if rep.WatchdogTrips != 1 || rep.Retries != 1 || rep.FallbackUsed {
		t.Fatalf("unexpected recovery ledger: %+v", rep)
	}
	if rep.RecoveryTime <= 0 || rep.RecoveryEnergyJ <= 0 {
		t.Fatalf("recovery must cost time and energy: %+v", rep)
	}
	if rep.TotalTime <= rep.IdealTime+rep.RecoveryTime-1e-12 {
		t.Fatalf("recovery time not in the timeline: total %v ideal %v rec %v",
			rep.TotalTime, rep.IdealTime, rep.RecoveryTime)
	}
}

func TestOffloadFullReloadRecovers(t *testing.T) {
	// Two consecutive hangs force the second-retry path: full reload of
	// binary, descriptor and input over the link before the third attempt.
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 8)
	out, rep, err := sys.Offload(job, core.Options{
		WatchdogCycles: 2_000_000,
		Retries:        3,
		Faults:         fault.New(fault.Config{Seed: 6, EOCHangRate: 1, MaxFaults: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("reloaded offload produced wrong output")
	}
	if rep.WatchdogTrips != 2 || rep.Retries != 2 {
		t.Fatalf("unexpected recovery ledger: %+v", rep)
	}
	// The reload replays the load protocol over the link, so its energy
	// shows up in SPIJ beyond a clean run's.
	clean := testSystem(t, 16e6)
	_, repClean, err := clean.Offload(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy.SPIJ <= repClean.Energy.SPIJ {
		t.Fatalf("reload traffic invisible in SPIJ: %v vs %v", rep.Energy.SPIJ, repClean.Energy.SPIJ)
	}
}

func TestOffloadHostFallback(t *testing.T) {
	// A persistent hang exhausts the retries; with a host-ISA build
	// attached, the runtime degrades to native MCU execution and still
	// returns the correct result. A job may also carry its program's
	// predecoded code (cluster.RunJob honours it); the fallback must run
	// the host build's own code, not the accelerator's.
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	for _, carry := range []bool{false, true} {
		job, want := kernelJob(t, k, 2)
		if carry {
			comp, err := kernels.Compiled(job.Prog, sys.AccCfg.Target)
			if err != nil {
				t.Fatal(err)
			}
			job.Compiled = comp
		}
		out, rep, err := sys.Offload(job, core.Options{
			WatchdogCycles: 2_000_000,
			Retries:        1,
			HostFallback:   hostBuild(t, k),
			Faults:         fault.New(fault.Config{Seed: 9, EOCHangRate: 1}),
		})
		if err != nil {
			t.Fatalf("job carries Compiled %v: fallback should absorb the failure: %v", carry, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("job carries Compiled %v: host fallback produced wrong output", carry)
		}
		if !rep.FallbackUsed || rep.WatchdogTrips != 2 || rep.Retries != 1 {
			t.Fatalf("unexpected fallback ledger: %+v", rep)
		}
		if rep.RecoveryTime <= 0 || rep.RecoveryEnergyJ <= 0 || rep.Efficiency >= 1 {
			t.Fatalf("wasted accelerator work must be priced: %+v", rep)
		}
	}
}

func TestOffloadCompilesOnce(t *testing.T) {
	// Offload installs the program it is handed, so repeat offloads of one
	// job share one compilation through the memo. Reads counter deltas;
	// not parallel, so no other test compiles meanwhile.
	sys := testSystem(t, 16e6)
	job, want := kernelJob(t, kernels.MatMulChar(16), 4)
	c0 := cpu.Compiles.Load()
	for i := 0; i < 2; i++ {
		out, _, err := sys.Offload(job, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("offload %d: output differs from golden", i+1)
		}
	}
	if n := cpu.Compiles.Load() - c0; n > 1 {
		t.Fatalf("two offloads of one job compiled %d times, want at most 1", n)
	}
}

func TestOffloadDescriptorVerifyRecovers(t *testing.T) {
	// Descriptor corruption is a device-memory fault the link CRC cannot
	// see; write-verify readback catches it and rewrites.
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 1)
	out, rep, err := sys.Offload(job, core.Options{
		VerifyDescriptor: true,
		Retries:          2,
		Faults:           fault.New(fault.Config{Seed: 13, DescCorruptRate: 1, MaxFaults: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("rewritten descriptor produced wrong output")
	}
	if rep.DescRewrites != 1 {
		t.Fatalf("DescRewrites = %d, want 1", rep.DescRewrites)
	}
}

func TestOffloadErrorTaxonomy(t *testing.T) {
	// Every injected fault class maps to its typed error under errors.Is
	// once recovery is exhausted (no fallback attached).
	k := kernels.MatMulChar(16)
	cases := []struct {
		name string
		crc  bool
		opts core.Options
		want []error
	}{
		{
			name: "link corruption beyond retransmission limit",
			crc:  true,
			opts: core.Options{Faults: fault.New(fault.Config{Seed: 2, LinkCorruptRate: 1})},
			want: []error{core.ErrLinkCRC},
		},
		{
			name: "link drops beyond retransmission limit",
			crc:  true,
			opts: core.Options{Faults: fault.New(fault.Config{Seed: 3, LinkDropRate: 1})},
			want: []error{core.ErrLinkDropped},
		},
		{
			name: "persistent accelerator hang",
			opts: core.Options{
				WatchdogCycles: 2_000_000, Retries: 1,
				Faults: fault.New(fault.Config{Seed: 5, EOCHangRate: 1}),
			},
			want: []error{core.ErrDeviceHang, core.ErrEOCTimeout},
		},
		{
			name: "persistent descriptor corruption",
			opts: core.Options{
				VerifyDescriptor: true, Retries: 1,
				Faults: fault.New(fault.Config{Seed: 7, DescCorruptRate: 1}),
			},
			want: []error{core.ErrDescriptorCorrupt},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(core.Config{
				Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4,
				AccVdd: 0.8, AccFreqHz: 200e6, LinkCRC: tc.crc,
			})
			if err != nil {
				t.Fatal(err)
			}
			job, _ := kernelJob(t, k, 1)
			_, _, err = sys.Offload(job, tc.opts)
			if err == nil {
				t.Fatal("offload should fail")
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("error %v does not match %v", err, want)
				}
			}
		})
	}
}

func TestOffloadWithoutCRCLinkFaultsAreSilent(t *testing.T) {
	// Without CRC framing, injected corruption is undetectable at the link
	// layer: the offload either produces wrong bytes or wedges the device.
	// This documents WHY the framing exists.
	sys, err := core.NewSystem(core.Config{
		Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4,
		AccVdd: 0.8, AccFreqHz: 200e6, // LinkCRC off
	})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.MatMulChar(16)
	job, want := kernelJob(t, k, 6)
	out, _, err := sys.Offload(job, core.Options{
		WatchdogCycles: 2_000_000,
		Faults:         fault.New(fault.Config{Seed: 17, LinkCorruptRate: 0.3, MaxFaults: 8}),
	})
	if err == nil && bytes.Equal(out, want) {
		t.Fatal("corrupting the unprotected link should not yield a clean golden run")
	}
	if sys.Link.SilentFaults == 0 {
		t.Fatalf("expected silent faults on the unprotected link, counters: %+v", sys.Link)
	}
}

func TestOffloadFaultTracer(t *testing.T) {
	// Recovery actions must leave evidence in the trace.
	var sb strings.Builder
	sys := testSystem(t, 16e6)
	k := kernels.MatMulChar(16)
	job, _ := kernelJob(t, k, 3)
	_, _, err := sys.Offload(job, core.Options{
		WatchdogCycles: 2_000_000,
		Retries:        2,
		Tracer:         trace.New(&sb, 0),
		Faults:         fault.New(fault.Config{Seed: 4, EOCHangRate: 1, MaxFaults: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, wantS := range []string{"offload: injecting EOC hang", "watchdog trip", "re-raising fetch-enable"} {
		if !strings.Contains(sb.String(), wantS) {
			t.Errorf("trace lacks %q", wantS)
		}
	}
}
