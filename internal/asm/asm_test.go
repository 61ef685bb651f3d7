package asm

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"hetsim/internal/hw"
	"hetsim/internal/isa"
)

func TestBuilderBranchRelocation(t *testing.T) {
	b := NewBuilder("t")
	b.Label("start")
	b.ADDI(isa.A0, isa.R0, 1) // 0
	b.J("end")                // 1
	b.NOP()                   // 2
	b.Label("end")
	b.BNF("start") // 3
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[1].Imm != 1 { // from pc=1, target 3 => (3-1-1) = 1
		t.Errorf("J offset = %d, want 1", p.Text[1].Imm)
	}
	if p.Text[3].Imm != -4 { // from pc=3, target 0 => (0-3-1) = -4
		t.Errorf("BNF offset = %d, want -4", p.Text[3].Imm)
	}
}

func TestBuilderLPRelocation(t *testing.T) {
	b := NewBuilder("t")
	b.LI(isa.T0, 10)
	b.LPSetup(0, isa.T0, "body_end")
	b.ADDI(isa.A0, isa.A0, 1)
	b.ADDI(isa.A1, isa.A1, 2)
	b.Label("body_end")
	b.Ret()
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	var lp isa.Inst
	for _, in := range p.Text {
		if in.Op == isa.LPSETUP {
			lp = in
		}
	}
	if lp.Op != isa.LPSETUP || lp.Imm != 2 {
		t.Fatalf("LPSETUP body length = %d, want 2 (%v)", lp.Imm, lp)
	}
}

func TestBuilderEmptyHWLoopRejected(t *testing.T) {
	b := NewBuilder("t")
	b.LI(isa.T0, 4)
	b.LPSetup(0, isa.T0, "end")
	b.Label("end")
	b.Ret()
	if _, err := b.Build(Layout{}); err == nil {
		t.Fatal("empty hardware-loop body must be rejected")
	}
}

func TestBuilderDataLayoutAndLA(t *testing.T) {
	b := NewBuilder("t")
	b.Words("tbl", []int32{1, 2, 3})
	b.Halves("h", []int16{-1, 5})
	b.Space("buf", 100, 8)
	b.LA(isa.A0, "tbl")
	b.LA(isa.A1, "buf")
	b.Ret()
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := p.MustSym("tbl")
	if tbl != hw.DataVMABase {
		t.Errorf("tbl at %#x, want %#x", tbl, hw.DataVMABase)
	}
	h := p.MustSym("h")
	if h != tbl+12 {
		t.Errorf("h at %#x, want %#x", h, tbl+12)
	}
	buf := p.MustSym("buf")
	if buf%8 != 0 || buf < h+4 {
		t.Errorf("buf at %#x not aligned after h", buf)
	}
	heap := p.MustSym("__heap")
	if heap < buf+100 || heap%16 != 0 {
		t.Errorf("__heap = %#x, want aligned beyond buf+100=%#x", heap, buf+100)
	}
	if got := p.MustSym("__data_len"); got != 16 {
		t.Errorf("__data_len = %d, want 16", got)
	}
	// LA pairs must materialize the symbol address.
	if p.Text[0].Op != isa.MOVHI || uint32(p.Text[0].Imm) != tbl>>16 {
		t.Errorf("LA hi wrong: %v", p.Text[0])
	}
	if p.Text[1].Op != isa.ORIL || uint32(p.Text[1].Imm) != tbl&0xffff {
		t.Errorf("LA lo wrong: %v", p.Text[1])
	}
}

func TestBuilderDuplicateSymbol(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	b.Ret()
	b.Words("x", []int32{1})
	if _, err := b.Build(Layout{}); err == nil {
		t.Fatal("duplicate symbol must fail the build")
	}
}

func TestBuilderUndefinedSymbol(t *testing.T) {
	b := NewBuilder("t")
	b.J("nowhere")
	if _, err := b.Build(Layout{}); err == nil {
		t.Fatal("undefined symbol must fail the build")
	}
}

func TestLIShortAndLong(t *testing.T) {
	b := NewBuilder("t")
	b.LI(isa.A0, 100)        // 1 inst
	b.LI(isa.A1, 0x12340000) // movhi only
	b.LI(isa.A2, 0x12345678) // movhi+oril
	b.Ret()
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Text) != 5 {
		t.Fatalf("text length = %d, want 5", len(p.Text))
	}
	if p.Text[0].Op != isa.ADDI || p.Text[1].Op != isa.MOVHI || p.Text[2].Op != isa.MOVHI || p.Text[3].Op != isa.ORIL {
		t.Errorf("unexpected LI lowering: %v", p.Text)
	}
}

func TestImageRoundtrip(t *testing.T) {
	b := NewBuilder("round")
	b.Words("tbl", []int32{0x01020304, -5})
	b.LA(isa.A0, "tbl")
	b.LW(isa.A1, isa.A0, 0)
	b.Label("spin")
	b.J("spin")
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Image()
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != len(img) {
		t.Errorf("Size() = %d, len(Image) = %d", p.Size(), len(img))
	}
	q, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Entry != p.Entry || q.TextBase != p.TextBase || q.DataLMA != p.DataLMA || q.DataVMA != p.DataVMA {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text length mismatch")
	}
	for i := range p.Text {
		if q.Text[i] != p.Text[i] {
			t.Errorf("inst %d: %v != %v", i, q.Text[i], p.Text[i])
		}
	}
	if string(q.Data) != string(p.Data) {
		t.Errorf("data mismatch")
	}
	// Corruptions.
	if _, err := ParseImage(img[:10]); err == nil {
		t.Error("truncated image must fail")
	}
	bad := append([]byte(nil), img...)
	bad[0] = 'X'
	if _, err := ParseImage(bad); err == nil {
		t.Error("bad magic must fail")
	}
	// Digest hashes the same bytes without counting an encode; only
	// Image, which hands the bytes out, counts.
	n0 := Encodes.Load()
	sum, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if n := Encodes.Load() - n0; n != 0 {
		t.Errorf("Digest counted %d encodes, want 0", n)
	}
	if sum != sha256.Sum256(img) {
		t.Error("Digest differs from the sha256 of Image")
	}
	if _, err := p.Image(); err != nil || Encodes.Load()-n0 != 1 {
		t.Errorf("Image counted %d encodes (err %v), want 1", Encodes.Load()-n0, err)
	}
}

func TestValidateFeatureLeak(t *testing.T) {
	b := NewBuilder("t")
	b.DOTP4B(isa.A0, isa.A1, isa.A2)
	b.Ret()
	p, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(isa.PULPFull); err != nil {
		t.Errorf("OR10N must accept SIMD: %v", err)
	}
	if err := p.Validate(isa.CortexM4); err == nil {
		t.Error("Cortex-M must reject SIMD")
	}
	if err := p.Validate(isa.PULPPlain); err == nil {
		t.Error("plain RISC must reject SIMD")
	}
}

func TestAssembleBasic(t *testing.T) {
	src := `
; a tiny program
start:
    li   a0, 0x10000000
    addi a1, r0, 3
loop:
    lw   a2, 0(a0)
    add  a3, a3, a2
    addi a0, a0, 4
    addi a1, a1, -1
    sfeqi a1, 0
    bnf loop
    sw   a3, 0(a0)
    trap 0
.word tbl 1 2 3
.space buf 64
`
	p, err := Assemble("basic", src, Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sym("loop"); err != nil {
		t.Error(err)
	}
	if _, err := p.Sym("tbl"); err != nil {
		t.Error(err)
	}
	// BNF must point back to loop.
	var found bool
	for i, in := range p.Text {
		if in.Op == isa.BNF {
			tgt := p.TextBase + uint32(i)*4 + 4 + uint32(in.Imm)*4
			if tgt != p.MustSym("loop") {
				t.Errorf("bnf target %#x, want %#x", tgt, p.MustSym("loop"))
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no BNF found")
	}
}

func TestAssembleAllFormats(t *testing.T) {
	src := `
e:
    nop
    mac  a0, a1, a2
    dotp4b a0, a1, a2
    macs a1, a2
    macrdl a3, r0
    sexth a4, a5
    sfltu a1, a2
    sfgtsi a1, 7
    movhi a0, 0x1c00
    oril  a0, 0x100
    lbs  a1, -1(a0)
    sbp  a1, 1(a0)
    lp.setup 1, a2, lend
    addi a3, a3, 1
lend:
    mfspr t0, 0
    jalr lr, t0
    jal e
    wfe
    ret
`
	p, err := Assemble("fmts", src, Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(isa.PULPFull); err == nil {
		t.Log("note: program mixes M-profile and PULP ops by design")
	}
	// Round-trip through the disassembler: every mnemonic must appear.
	dis := p.Disassemble()
	for _, mn := range []string{"mac", "dotp4b", "macs", "sfltu", "lp.setup", "wfe", "jalr"} {
		if !strings.Contains(dis, mn) {
			t.Errorf("disassembly lacks %q:\n%s", mn, dis)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",
		"add r1, r2",
		"addi r1, r2, bogus",
		"lw r1, r2",
		"add r99, r1, r2",
		".word",
		".space buf -1",
		"lp.setup 3, r5, end\nend:",
	}
	for _, src := range bad {
		if _, err := Assemble("bad", src, Layout{}); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestAssemblerBuilderEquivalence(t *testing.T) {
	// The same program written both ways must produce identical text.
	src := `
start:
    li  t0, 16
    lp.setup 0, t0, end
    lwp a1, 4(a0)
end:
    ret
`
	p1, err := Assemble("eq", src, Layout{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("eq")
	b.Label("start")
	b.LI(isa.T0, 16)
	b.LPSetup(0, isa.T0, "end")
	b.Load(isa.LWP, isa.A1, isa.A0, 4)
	b.Label("end")
	b.Ret()
	p2, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Text) != len(p2.Text) {
		t.Fatalf("lengths differ: %d vs %d", len(p1.Text), len(p2.Text))
	}
	for i := range p1.Text {
		if p1.Text[i] != p2.Text[i] {
			t.Errorf("inst %d: %v vs %v", i, p1.Text[i], p2.Text[i])
		}
	}
}

// TestAsmSourceRoundtrip: Assemble(p.AsmSource()) must reproduce the text
// and data image of builder-produced programs.
func TestAsmSourceRoundtrip(t *testing.T) {
	b := NewBuilder("round2")
	b.Words("tbl", []int32{5, -6, 7})
	b.Space("scratch", 24, 8)
	b.Label("_start")
	b.LA(isa.A0, "tbl")
	b.LI(isa.T0, 3)
	b.Label("loop")
	b.LPSetup(0, isa.T0, "lend")
	b.Load(isa.LWP, isa.A1, isa.A0, 4)
	b.Label("lend")
	b.SFI(isa.SFEQI, isa.A1, 7)
	b.BNF("loop")
	b.JAL("fn")
	b.TRAP(0)
	b.Label("fn")
	b.MACS(isa.A1, isa.A2)
	b.MACRDL(isa.A3)
	b.Store(isa.SHP, isa.A0, isa.A3, 2)
	b.Ret()
	p1, err := b.Build(Layout{})
	if err != nil {
		t.Fatal(err)
	}
	src := p1.AsmSource()
	p2, err := Assemble("round2", src, Layout{})
	if err != nil {
		t.Fatalf("reassembling generated source: %v\nsource:\n%s", err, src)
	}
	if len(p1.Text) != len(p2.Text) {
		t.Fatalf("text length %d vs %d\nsource:\n%s", len(p1.Text), len(p2.Text), src)
	}
	for i := range p1.Text {
		if p1.Text[i] != p2.Text[i] {
			t.Errorf("inst %d: %v vs %v", i, p1.Text[i], p2.Text[i])
		}
	}
	if !bytes.Equal(p1.Data, p2.Data) {
		t.Errorf("data image differs:\n%v\n%v", p1.Data, p2.Data)
	}
	if p1.MustSym("tbl") != p2.MustSym("tbl") || p1.MustSym("scratch") != p2.MustSym("scratch") {
		t.Error("data symbol addresses differ")
	}
	if p1.MustSym("__heap") != p2.MustSym("__heap") {
		t.Error("heap differs")
	}
}
