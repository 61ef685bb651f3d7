package cluster_test

import (
	"bytes"
	"reflect"
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
)

// TestDifferentialCycleAccuracy proves that the event-driven run loop (with
// idle fast-forwarding, O(1) termination checks and the predecoded core
// fast paths) is cycle-exact against the naive reference loop: for every
// kernel of the small suite, on single- and multi-core accelerator
// configurations and on an MCU host, both loops must report bit-identical
// cycle counts, outputs and per-component performance counters. Any
// optimization that changes observable timing by even one cycle fails
// here.
func TestDifferentialCycleAccuracy(t *testing.T) {
	type runCfg struct {
		name    string
		tgt     isa.Target
		mode    devrt.Mode
		threads uint32
	}
	configs := []runCfg{
		{"pulp-4t", isa.PULPFull, devrt.Accel, 4},
		{"pulp-2t", isa.PULPFull, devrt.Accel, 2},
		{"pulp-1t", isa.PULPFull, devrt.Accel, 1},
		{"m4-host", isa.CortexM4, devrt.Host, 1},
	}
	for _, k := range kernels.SmallSuite() {
		for _, rc := range configs {
			t.Run(k.Name+"/"+rc.name, func(t *testing.T) {
				prog, err := k.Build(rc.tgt, rc.mode)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				var cfg cluster.Config
				if rc.mode == devrt.Accel {
					cfg = cluster.PULPConfig()
					cfg.Target = rc.tgt
				} else {
					cfg = cluster.MCUConfig(rc.tgt)
				}
				in := k.Input(1)
				job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(),
					Iters: 1, Threads: rc.threads, Args: k.Args()}

				// Three execution modes, compared pairwise against the naive
				// reference loop: fused (the default, chaining through hot
				// edges), stepped (blocks disabled), and the reference
				// itself. Attribution is recorded in all of them so the
				// 9-class obs exactness invariant covers fused and chained
				// runs too.
				cfg.Observe = true
				cfg.ReferenceRun = false
				sup, err := cluster.RunJob(cfg, rc.mode, job, 2_000_000_000)
				if err != nil {
					t.Fatalf("superblock run: %v", err)
				}
				cfg.NoBlocks = true
				stp, err := cluster.RunJob(cfg, rc.mode, job, 2_000_000_000)
				if err != nil {
					t.Fatalf("stepped run: %v", err)
				}
				cfg.ReferenceRun = true
				ref, err := cluster.RunJob(cfg, rc.mode, job, 2_000_000_000)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}

				for _, leg := range []struct {
					name string
					res  *cluster.JobResult
				}{{"super", sup}, {"stepped", stp}} {
					opt := leg.res
					if opt.Cycles != ref.Cycles {
						t.Errorf("%s: cycle count diverged: optimized %d, reference %d",
							leg.name, opt.Cycles, ref.Cycles)
					}
					if !bytes.Equal(opt.Out, ref.Out) {
						t.Errorf("%s: output buffers diverged", leg.name)
					}
					if !reflect.DeepEqual(opt.Stats, ref.Stats) {
						t.Errorf("%s: stats diverged:\noptimized: %+v\nreference: %+v",
							leg.name, opt.Stats, ref.Stats)
					}
					if !reflect.DeepEqual(opt.Attr, ref.Attr) {
						t.Errorf("%s: attribution diverged:\noptimized: %+v\nreference: %+v",
							leg.name, opt.Attr, ref.Attr)
					}
				}
			})
		}
	}
}
