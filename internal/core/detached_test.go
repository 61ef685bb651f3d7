package core

import (
	"testing"

	"hetsim/internal/devrt"
	"hetsim/internal/isa"
	"hetsim/internal/kernels"
	"hetsim/internal/loader"
	"hetsim/internal/power"
)

// TestDetachedOffloadArmsNoObs is the offload half of the structural proof
// that detached observability costs nothing (DESIGN.md §10): an offload
// with no Obs and no Timeline arms neither the host timeline, nor the
// link's span recorder, nor the accelerator's cycle attribution, so none
// of the nil-guarded hooks on those pointers fires. It drives the run
// the way Offload does, to inspect the run's state afterwards.
func TestDetachedOffloadArmsNoObs(t *testing.T) {
	s, err := NewSystem(Config{Host: power.STM32L476, HostFreqHz: 16e6, Lanes: 4, AccVdd: 0.8, AccFreqHz: 200e6})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.MatMulChar(16)
	prog, err := k.Build(isa.PULPFull, devrt.Accel)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.newRun(loader.Job{Prog: prog, In: k.Input(1), OutLen: k.OutLen(), Iters: 1, Threads: 4, Args: k.Args()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.Image()
	if err != nil {
		t.Fatal(err)
	}
	r.text = img[36 : 36+4*len(prog.Text)]
	if _, _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	if r.tl != nil || r.ctl != nil || s.Link.TL != nil {
		t.Errorf("detached offload armed a timeline: host %v, cluster %v, link %v", r.tl != nil, r.ctl != nil, s.Link.TL != nil)
	}
	for _, c := range r.acc.Cores {
		if c.Obs != nil {
			t.Errorf("detached offload armed core %d's cycle attribution", c.ID)
		}
	}
}
