package kernels

import (
	"bytes"
	"testing"

	"hetsim/internal/cluster"
	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/loader"
)

// checkKernel builds the kernel for the target, runs it on the matching
// cluster configuration and compares the output buffer with the golden
// model byte-for-byte.
func checkKernel(t *testing.T, k *Instance, tgt isa.Target, mode devrt.Mode, threads uint32, seed uint64) *cluster.JobResult {
	t.Helper()
	prog, err := k.Build(tgt, mode)
	if err != nil {
		t.Fatalf("%s/%s: %v", k.Name, tgt.Name, err)
	}
	var cfg cluster.Config
	if mode == devrt.Accel {
		cfg = cluster.PULPConfig()
		cfg.Target = tgt
	} else {
		cfg = cluster.MCUConfig(tgt)
	}
	in := k.Input(seed)
	job := loader.Job{Prog: prog, In: in, OutLen: k.OutLen(), Iters: 1, Threads: threads, Args: k.Args()}
	res, err := cluster.RunJob(cfg, mode, job, 2_000_000_000)
	if err != nil {
		t.Fatalf("%s/%s/%s/t%d: %v", k.Name, tgt.Name, mode, threads, err)
	}
	want := k.Golden(in)
	if len(want) != len(res.Out) {
		t.Fatalf("%s: golden length %d vs output length %d", k.Name, len(want), len(res.Out))
	}
	if !bytes.Equal(want, res.Out) {
		idx := -1
		for i := range want {
			if want[i] != res.Out[i] {
				idx = i
				break
			}
		}
		t.Fatalf("%s/%s/%s/t%d: output mismatch at byte %d: got %#x want %#x",
			k.Name, tgt.Name, mode, threads, idx, res.Out[idx], want[idx])
	}
	return res
}

// matrix of (target, mode, threads) every kernel must pass.
type runCfg struct {
	tgt     isa.Target
	mode    devrt.Mode
	threads uint32
}

func allConfigs() []runCfg {
	return []runCfg{
		{isa.PULPFull, devrt.Accel, 4},
		{isa.PULPFull, devrt.Accel, 3},
		{isa.PULPFull, devrt.Accel, 2},
		{isa.PULPFull, devrt.Accel, 1},
		{isa.CortexM4, devrt.Host, 1},
		{isa.CortexM3, devrt.Host, 1},
		{isa.PULPPlain, devrt.Host, 1},
	}
}

func testKernelAllTargets(t *testing.T, k *Instance) {
	t.Helper()
	for _, c := range allConfigs() {
		c := c
		t.Run(c.tgt.Name+"/"+c.mode.String()+"/"+string(rune('0'+c.threads)), func(t *testing.T) {
			checkKernel(t, k, c.tgt, c.mode, c.threads, 1)
		})
	}
}

func TestMatMulCharGolden(t *testing.T)  { testKernelAllTargets(t, MatMulChar(16)) }
func TestMatMulShortGolden(t *testing.T) { testKernelAllTargets(t, MatMulShort(16)) }
func TestMatMulFixedGolden(t *testing.T) { testKernelAllTargets(t, MatMulFixed(16)) }

// Different seeds must produce different inputs but stable outputs.
func TestInputDeterminism(t *testing.T) {
	k := MatMulChar(16)
	a := k.Input(1)
	b := k.Input(1)
	c := k.Input(2)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give identical input")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

// The OR10N build must be architecturally faster than the M4 build on the
// integer matmuls (Fig. 4's premise), single-core, same work.
func TestMatMulArchAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle comparison needs the larger instance")
	}
	k := MatMulChar(32)
	pulp := checkKernel(t, k, isa.PULPFull, devrt.Accel, 1, 3)
	m4 := checkKernel(t, k, isa.CortexM4, devrt.Host, 1, 3)
	ratio := float64(m4.Cycles) / float64(pulp.Cycles)
	if ratio < 1.5 {
		t.Errorf("char matmul arch speedup = %.2f (m4=%d pulp=%d), expected > 1.5",
			ratio, m4.Cycles, pulp.Cycles)
	}
}

func TestMatMulParallelScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle comparison needs the larger instance")
	}
	k := MatMulShort(32)
	c1 := checkKernel(t, k, isa.PULPFull, devrt.Accel, 1, 5)
	c4 := checkKernel(t, k, isa.PULPFull, devrt.Accel, 4, 5)
	sp := float64(c1.Cycles) / float64(c4.Cycles)
	if sp < 2.5 || sp > 4.05 {
		t.Errorf("4-core speedup = %.2f (1c=%d 4c=%d), expected in (2.5, 4.05]",
			sp, c1.Cycles, c4.Cycles)
	}
}

func TestStrassenGolden(t *testing.T)  { testKernelAllTargets(t, Strassen(16)) }
func TestSVMLinearGolden(t *testing.T) { testKernelAllTargets(t, SVM(SVMLinear, 16, 8, 6)) }
func TestSVMPolyGolden(t *testing.T)   { testKernelAllTargets(t, SVM(SVMPoly, 16, 8, 6)) }
func TestSVMRBFGolden(t *testing.T)    { testKernelAllTargets(t, SVM(SVMRBF, 16, 8, 6)) }
func TestCNNGolden(t *testing.T)       { testKernelAllTargets(t, CNNSized(false, 16, 2, 4)) }
func TestCNNApproxGolden(t *testing.T) { testKernelAllTargets(t, CNNSized(true, 16, 2, 4)) }
func TestHOGGolden(t *testing.T)       { testKernelAllTargets(t, HOG(32, 32)) }

func TestFIRGolden(t *testing.T) { testKernelAllTargets(t, FIR(128, 16)) }

func TestExtraSuite(t *testing.T) {
	for _, k := range ExtraSuite() {
		if k.Name == "" || k.OutLen() == 0 {
			t.Errorf("degenerate extra kernel %+v", k)
		}
	}
}

func TestDWTGolden(t *testing.T) { testKernelAllTargets(t, DWT(128, 3)) }

// TestInLenMatchesInput pins InLen to the generator: a fold reads a
// kernel's input size from InLen without generating the input, so each
// constructor's size formula must agree with its generator's, at every
// size both suites (paper.Registry) and the extra kernels use.
func TestInLenMatchesInput(t *testing.T) {
	for _, suite := range [][]*Instance{PaperSuite(), SmallSuite(), ExtraSuite()} {
		for _, k := range suite {
			for _, seed := range []uint64{1, 2, 0x5eed} {
				if got, want := k.InLen(), len(k.Input(seed)); int(got) != want {
					t.Errorf("%s (%s) seed %d: InLen %d, len(Input) %d", k.Name, k.ParamDesc, seed, got, want)
				}
			}
		}
	}
}
