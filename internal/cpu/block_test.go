package cpu

import (
	"testing"

	"hetsim/internal/hw"
	"hetsim/internal/isa"
	"hetsim/internal/mem"
)

// TestCompileCounts pins the Compiles counter Compile feeds (the kernels
// memo test asserts per-image single-flight on top of it).
func TestCompileCounts(t *testing.T) {
	before := Compiles.Load()
	comp := Compile([]isa.Inst{{Op: isa.ADD, Rd: 2, Ra: 2, Rb: 2}, {Op: isa.TRAP}}, isa.PULPFull)
	if got := Compiles.Load() - before; got != 1 {
		t.Errorf("Compile bumped Compiles by %d, want 1", got)
	}
	if len(comp.Code) != 2 || comp.Code[1].Meta.Flags&MetaFuseBreak == 0 {
		t.Errorf("Compile returned inconsistent image: %+v", comp)
	}
}

// TestWindowClaimRules pins the commit rule of an optimistic window's
// log: loads by several cores share a word; a second claim on a bank in
// one cycle is denied when the holder is served first in that cycle's
// rotation and cuts the pass otherwise; a store to a word another core
// touched, and any access to a word another core stored, cut the pass at
// that cycle. Undo restores exactly the words the pass stored.
func TestWindowClaimRules(t *testing.T) {
	tm := mem.NewTCDM(4096, 4)
	base := uint32(hw.TCDMBase)
	tm.Write(base+16, 4, 0xdead)
	w := NewWindow(tm)
	// Four cores; at cycle 100+o the rotation starts at core o mod 4.
	w.Begin(100, 200, 0, 4)

	steps := []struct {
		name  string
		id    int
		t     uint64
		addr  uint32
		size  uint32
		store bool
		want  int
		cut   Cut
	}{
		{"private load", 0, 100, base + 0, 4, false, claimGranted, CutNone},
		{"other bank same cycle", 1, 100, base + 4, 4, false, claimGranted, CutNone},
		{"bank held by a core served first", 2, 100, base + 16, 4, false, claimDenied, CutNone},
		{"bank held by a core served later", 1, 107, base + 48, 4, false, claimGranted, CutNone},
		{"served before the holder", 0, 107, base + 64, 4, false, claimCut, CutBank},
		{"shared load", 1, 101, base + 0, 4, false, claimGranted, CutNone},
		{"own store", 0, 102, base + 32, 4, true, claimGranted, CutNone},
		{"store after shared loads", 0, 104, base + 0, 4, true, claimCut, CutWord},
		{"load of another core's store", 1, 104, base + 32, 1, false, claimCut, CutWord},
		{"unaligned store straddles a loaded word", 1, 105, base + 14, 4, true, claimGranted, CutNone},
		{"load of the straddled word", 2, 106, base + 16, 2, false, claimCut, CutWord},
	}
	for _, s := range steps {
		w.lim, w.cause = 200, CutNone
		if got := w.claim(s.id, s.t, s.addr, s.size, s.store); got != s.want {
			t.Errorf("%s: claim = %v, want %v", s.name, got, s.want)
		}
		if w.cause != s.cut || (s.cut != CutNone) != (w.lim == s.t) {
			t.Errorf("%s: cut %v at %d, want %v at %d", s.name, w.cause, w.lim, s.cut, s.t)
		}
		if s.want == claimGranted && s.store {
			tm.Write(s.addr, s.size, 0xffffffff)
		}
	}
	w.Undo()
	if got := tm.Read(base+16, 4); got != 0xdead {
		t.Errorf("undo left %#x at a straddled word, want 0xdead", got)
	}
	if got := tm.Read(base+32, 4); got != 0 {
		t.Errorf("undo left %#x at a stored word, want 0", got)
	}
}
