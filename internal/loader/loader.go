// Package loader computes the memory layout of an offloaded job and
// serializes the job descriptor the device runtime (internal/devrt) reads
// at boot. Both the standalone test harness (which pokes L2 directly) and
// the host-side offload runtime (which sends the same bytes over SPI) use
// it, so the two paths can never disagree about the layout.
package loader

import (
	"encoding/binary"
	"fmt"

	"hetsim/internal/asm"
	"hetsim/internal/cpu"
	"hetsim/internal/hw"
)

// Job describes one offload: the program plus its I/O contract.
type Job struct {
	Prog    *asm.Program
	In      []byte // input buffer contents (may be nil)
	OutLen  uint32 // output buffer size in bytes
	Iters   uint32 // how many times the device runs `main` per offload
	Threads uint32 // OpenMP team size (1..cores)
	Args    [4]uint32
	// StackCores sizes the per-core stack reservation at the top of TCDM
	// (0 defaults to the 4-core cluster of the paper).
	StackCores int
	// Compiled, when non-nil, is the shared predecoded text of Prog for
	// the cluster's target (kernels.Compiled memoizes it per process,
	// keyed on the program and the full target spec). Nil makes the
	// cluster compile privately at load.
	Compiled *cpu.Compiled
}

// Layout is the resolved set of addresses of one job.
type Layout struct {
	Entry uint32

	// TCDM (runtime) addresses.
	InVMA  uint32
	OutVMA uint32

	// L2 (staging) addresses.
	TextLMA   uint32
	DataLMA   uint32
	InLMA     uint32
	OutLMA    uint32
	DescBase  uint32
	ImageSize uint32
}

func align(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

// Plan resolves the job layout against the given memory sizes and checks
// that everything fits.
func Plan(j Job, tcdmSize, l2Size uint32) (Layout, error) {
	if j.Prog == nil {
		return Layout{}, fmt.Errorf("loader: job has no program")
	}
	if j.Threads == 0 {
		j.Threads = 1
	}
	heap := j.Prog.MustSym("__heap")
	l := Layout{
		Entry:    j.Prog.Entry,
		TextLMA:  j.Prog.TextBase,
		DataLMA:  j.Prog.DataLMA,
		DescBase: hw.DescBase,
	}
	l.InVMA = align(heap, 8)
	l.OutVMA = align(l.InVMA+uint32(len(j.In)), 8)
	tcdmEnd := l.OutVMA + j.OutLen
	cores := j.StackCores
	if cores < 4 {
		cores = 4
	}
	stacks := hw.TCDMBase + tcdmSize - uint32(cores)*hw.StackSize
	if tcdmEnd > stacks {
		return Layout{}, fmt.Errorf("loader: job needs %d TCDM bytes, only %d before the stacks",
			tcdmEnd-hw.TCDMBase, stacks-hw.TCDMBase)
	}
	dataEnd := j.Prog.DataLMA + uint32(len(j.Prog.Data))
	l.InLMA = align(dataEnd, 16)
	l.OutLMA = align(l.InLMA+uint32(len(j.In)), 16)
	l2End := l.OutLMA + j.OutLen
	if l2End > hw.L2Base+l2Size {
		return Layout{}, fmt.Errorf("loader: job needs %d L2 bytes, have %d",
			l2End-hw.L2Base, l2Size)
	}
	l.ImageSize = uint32(j.Prog.Size())
	return l, nil
}

// Descriptor serializes the hw.Desc* block for the job. An unset team
// size or iteration count defaults to 1, matching Plan.
func Descriptor(j Job, l Layout) []byte {
	if j.Threads == 0 {
		j.Threads = 1
	}
	if j.Iters == 0 {
		j.Iters = 1
	}
	d := make([]byte, hw.DescSize)
	put := func(off uint32, v uint32) { binary.LittleEndian.PutUint32(d[off:], v) }
	put(hw.DescEntry, l.Entry)
	put(hw.DescIn, l.InVMA)
	put(hw.DescInLen, uint32(len(j.In)))
	put(hw.DescOut, l.OutVMA)
	put(hw.DescOutLen, j.OutLen)
	put(hw.DescIters, j.Iters)
	put(hw.DescThreads, j.Threads)
	put(hw.DescArg0, j.Args[0])
	put(hw.DescArg1, j.Args[1])
	put(hw.DescArg2, j.Args[2])
	put(hw.DescArg3, j.Args[3])
	put(hw.DescInLMA, l.InLMA)
	put(hw.DescOutLMA, l.OutLMA)
	put(hw.DescDataLMA, l.DataLMA)
	put(hw.DescDataLen, uint32(len(j.Prog.Data)))
	put(hw.DescDataVMA, j.Prog.DataVMA)
	return d
}
