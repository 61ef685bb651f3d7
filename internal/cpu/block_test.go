package cpu

import (
	"testing"

	"hetsim/internal/isa"
)

func compileText(t *testing.T, tgt isa.Target, text []isa.Inst) *BlockTable {
	t.Helper()
	return CompileBlocks(Predecode(text, tgt), tgt)
}

func alu(rd isa.Reg) isa.Inst  { return isa.Inst{Op: isa.ADD, Rd: rd, Ra: rd, Rb: rd} }
func load(rd isa.Reg) isa.Inst { return isa.Inst{Op: isa.LW, Rd: rd, Ra: 1} }

// TestCompileBlocksRunShapes pins the Multi-table discovery rules: ALU runs
// accumulate, a memory op only leads a run, branches end one inclusively,
// and TRAP/WFE/illegal ops end it exclusively.
func TestCompileBlocksRunShapes(t *testing.T) {
	tgt := isa.PULPFull
	cases := []struct {
		name string
		text []isa.Inst
		want []uint16
	}{
		{
			"alu-run",
			[]isa.Inst{alu(2), alu(3), alu(4), {Op: isa.TRAP}},
			[]uint16{3, 2, 1, 0},
		},
		{
			"mem-leads-only",
			// load, alu, load, alu: a mem op fuses its ALU tail but an ALU
			// run must stop before a following mem op (which needs the
			// stepped gate or run-leading arbitration at its exact cycle).
			[]isa.Inst{load(2), alu(3), load(4), alu(5), {Op: isa.TRAP}},
			[]uint16{2, 1, 2, 1, 0},
		},
		{
			"branch-ends-inclusively",
			[]isa.Inst{alu(2), alu(3), {Op: isa.BF, Imm: 1}, alu(4), {Op: isa.TRAP}},
			[]uint16{3, 2, 1, 1, 0},
		},
		{
			"trap-breaks",
			[]isa.Inst{alu(2), {Op: isa.TRAP}, alu(3), {Op: isa.TRAP}},
			[]uint16{1, 0, 1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bt := compileText(t, tgt, tc.text)
			for i, want := range tc.want {
				if bt.Multi[i] != want {
					t.Errorf("Multi[%d] = %d, want %d (table %v)", i, bt.Multi[i], want, bt.Multi)
				}
			}
		})
	}
}

// TestCompileBlocksSpanClamp proves every compiled run's worst-case cycle
// window fits the charge plan's planWords bitmask words: a long run of
// multi-cycle ops (DIV is 32 cycles on PULPFull) must be cut so the
// per-op weights sum to at most maxRunSpan, while a plain ALU run of the
// same length survives up to the span bound.
func TestCompileBlocksSpanClamp(t *testing.T) {
	tgt := isa.PULPFull
	var text []isa.Inst
	for i := 0; i < 16; i++ {
		text = append(text, isa.Inst{Op: isa.DIV, Rd: 2, Ra: 3, Rb: 4})
	}
	text = append(text, isa.Inst{Op: isa.TRAP})
	bt := compileText(t, tgt, text)
	// Each DIV weighs 1 issue + 31 extra (loadUse 0 on PULPFull): exactly
	// maxRunSpan/32 of them fit the plan window.
	if want := uint16(maxRunSpan / 32); bt.Multi[0] != want {
		t.Errorf("DIV run length = %d, want %d (span must fit %d)", bt.Multi[0], want, maxRunSpan)
	}

	long := make([]isa.Inst, 0, 2*maxRunSpan)
	for i := 0; i < 2*maxRunSpan; i++ {
		long = append(long, alu(2))
	}
	long = append(long, isa.Inst{Op: isa.TRAP})
	bt = compileText(t, tgt, long)
	if got := int(bt.Multi[0]); got != maxRunSpan {
		t.Errorf("ALU run length = %d, want clamp at %d", got, maxRunSpan)
	}

	// Verify the invariant directly over every compiled run: worst-case
	// span <= maxRunSpan (the executor relies on this, not on re-checking),
	// and every chainable Span entry records exactly that worst case.
	code := Predecode(long, tgt)
	bt = CompileBlocks(code, tgt)
	for i := range code {
		span := 0
		for k := 0; k < int(bt.Multi[i]); k++ {
			span += 1 + int(code[i+k].Meta.Cyc-1)
		}
		if span > maxRunSpan {
			t.Fatalf("run at %d spans %d cycles > %d", i, span, maxRunSpan)
		}
		if s := bt.Span[i]; s != spanNoChain && int(s) != span {
			t.Fatalf("Span[%d] = %d, want %d", i, s, span)
		}
	}
}

// TestCompileBlocksSpanTable pins the chain-admission side-table rules:
// mem-led runs and fuse-break/illegal entries are spanNoChain, ALU-led
// runs (including lone branches) record their worst-case span.
func TestCompileBlocksSpanTable(t *testing.T) {
	tgt := isa.PULPFull
	text := []isa.Inst{
		alu(2), alu(3), // ALU run: chainable
		load(4),              // mem-led: never a chain target
		{Op: isa.BF, Imm: 1}, // lone branch: chainable
		alu(5),
		{Op: isa.TRAP}, // fuse break: never a chain target
	}
	bt := compileText(t, tgt, text)
	if bt.Span[0] == spanNoChain || bt.Span[1] == spanNoChain {
		t.Errorf("ALU-led entries must be chainable: Span %v", bt.Span)
	}
	if bt.Span[2] != spanNoChain {
		t.Errorf("mem-led entry must be spanNoChain, got %d", bt.Span[2])
	}
	if bt.Span[3] == spanNoChain {
		t.Errorf("branch-led entry must be chainable: Span %v", bt.Span)
	}
	if bt.Span[5] != spanNoChain {
		t.Errorf("fuse-break entry must be spanNoChain, got %d", bt.Span[5])
	}
	// The branch entry's span must cover its worst-case penalty so a
	// chain admission can never overflow the plan.
	braMax := tgt.Time.Jump
	if b := tgt.Time.BranchTaken; b > braMax {
		braMax = b
	}
	if int(bt.Span[3]) < 1+braMax {
		t.Errorf("branch Span = %d, want >= %d (issue + max penalty)", bt.Span[3], 1+braMax)
	}
}

// TestCompileCounts pins the BlockCompiles counter Compile feeds (the
// kernels memo test asserts per-image single-flight on top of it).
func TestCompileCounts(t *testing.T) {
	before := BlockCompiles.Load()
	comp := Compile([]isa.Inst{alu(2), {Op: isa.TRAP}}, isa.PULPFull)
	if got := BlockCompiles.Load() - before; got != 1 {
		t.Errorf("Compile bumped BlockCompiles by %d, want 1", got)
	}
	if len(comp.Code) != 2 || comp.Blocks == nil || len(comp.Blocks.Multi) != 2 {
		t.Errorf("Compile returned inconsistent image: %+v", comp)
	}
}
