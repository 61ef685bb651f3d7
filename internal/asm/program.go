package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"hetsim/internal/isa"
)

// Program is a linked, loadable program: the artifact a host offloads to
// the accelerator. Text is kept pre-decoded for the simulator; Image
// serializes the binary exactly as it crosses the SPI link.
type Program struct {
	Name     string
	Entry    uint32
	TextBase uint32
	Text     []isa.Inst
	DataLMA  uint32 // load address of the data image (in L2, after text)
	DataVMA  uint32 // runtime address (in TCDM, copied by crt0)
	Data     []byte
	BSSLen   uint32
	Symbols  map[string]uint32
}

// Sym returns the value of a symbol, or an error naming it.
func (p *Program) Sym(name string) (uint32, error) {
	v, ok := p.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("asm: program %q has no symbol %q", p.Name, name)
	}
	return v, nil
}

// MustSym is Sym for symbols the build itself guarantees (builtin layout
// symbols); it panics on absence, which indicates a bug, not bad input.
func (p *Program) MustSym(name string) uint32 {
	v, err := p.Sym(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Size returns the serialized binary size in bytes — the "Binary Size"
// column of Table I and the offload payload of Fig. 5b.
func (p *Program) Size() int { return imageHeaderLen + 4*len(p.Text) + len(p.Data) }

// Validate checks that every instruction is executable by the target. This
// is how tests prove the kernel generators honour feature flags (e.g. no
// SIMD leaks into a Cortex-M build).
func (p *Program) Validate(t isa.Target) error {
	for i, in := range p.Text {
		if !t.Supports(in.Op) {
			return fmt.Errorf("asm: %s+%d: %v not supported by target %s", p.Name, i, in, t.Name)
		}
	}
	return nil
}

// Image header layout (little-endian):
//
//	0  magic "PBIN"
//	4  version (u16) | flags (u16, reserved)
//	8  entry
//	12 text base
//	16 text length (bytes)
//	20 data LMA
//	24 data VMA
//	28 data length (bytes)
//	32 bss length (bytes)
const (
	imageMagic     = "PBIN"
	imageVersion   = 1
	imageHeaderLen = 36
)

// Encodes counts Image calls process-wide; kernels.ArtifactStats reports
// it, and the warm-campaign test pins that a campaign, which only
// composes offloads, serializes none. Digest does not count: hashing a
// program for a key moves no bytes.
var Encodes atomic.Uint64

// Image serializes the program to the byte stream offloaded over SPI.
func (p *Program) Image() ([]byte, error) {
	Encodes.Add(1)
	return p.encode()
}

// Digest is the sha256 of the program's Image, computed without counting
// an encode.
func (p *Program) Digest() ([sha256.Size]byte, error) {
	img, err := p.encode()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(img), nil
}

// encode serializes the program; Image and Digest share it.
func (p *Program) encode() ([]byte, error) {
	text, err := isa.EncodeProgram(p.Text)
	if err != nil {
		return nil, fmt.Errorf("asm: encoding %q: %w", p.Name, err)
	}
	out := make([]byte, imageHeaderLen, imageHeaderLen+len(text)+len(p.Data))
	copy(out, imageMagic)
	binary.LittleEndian.PutUint16(out[4:], imageVersion)
	binary.LittleEndian.PutUint32(out[8:], p.Entry)
	binary.LittleEndian.PutUint32(out[12:], p.TextBase)
	binary.LittleEndian.PutUint32(out[16:], uint32(len(text)))
	binary.LittleEndian.PutUint32(out[20:], p.DataLMA)
	binary.LittleEndian.PutUint32(out[24:], p.DataVMA)
	binary.LittleEndian.PutUint32(out[28:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(out[32:], p.BSSLen)
	out = append(out, text...)
	out = append(out, p.Data...)
	return out, nil
}

// ParseImage deserializes a binary image produced by Image. Symbols are not
// part of the wire format and are left nil.
func ParseImage(b []byte) (*Program, error) {
	if len(b) < imageHeaderLen || string(b[:4]) != imageMagic {
		return nil, fmt.Errorf("asm: not a PBIN image")
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != imageVersion {
		return nil, fmt.Errorf("asm: unsupported PBIN version %d", v)
	}
	textLen := binary.LittleEndian.Uint32(b[16:])
	dataLen := binary.LittleEndian.Uint32(b[28:])
	if uint32(len(b)) != imageHeaderLen+textLen+dataLen {
		return nil, fmt.Errorf("asm: truncated PBIN image: have %d bytes, header says %d",
			len(b), imageHeaderLen+textLen+dataLen)
	}
	text, err := isa.DecodeProgram(b[imageHeaderLen : imageHeaderLen+textLen])
	if err != nil {
		return nil, err
	}
	data := make([]byte, dataLen)
	copy(data, b[imageHeaderLen+textLen:])
	return &Program{
		Name:     "image",
		Entry:    binary.LittleEndian.Uint32(b[8:]),
		TextBase: binary.LittleEndian.Uint32(b[12:]),
		Text:     text,
		DataLMA:  binary.LittleEndian.Uint32(b[20:]),
		DataVMA:  binary.LittleEndian.Uint32(b[24:]),
		Data:     data,
		BSSLen:   binary.LittleEndian.Uint32(b[32:]),
	}, nil
}

// Disassemble renders the text section with addresses and symbolized branch
// targets, one instruction per line.
func (p *Program) Disassemble() string {
	// Invert the symbol table for labels that fall inside the text.
	byAddr := make(map[uint32][]string)
	for name, v := range p.Symbols {
		if strings.HasPrefix(name, "__") {
			continue
		}
		byAddr[v] = append(byAddr[v], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}
	var sb strings.Builder
	for i, in := range p.Text {
		addr := p.TextBase + uint32(i)*4
		for _, name := range byAddr[addr] {
			fmt.Fprintf(&sb, "%s:\n", name)
		}
		fmt.Fprintf(&sb, "  %08x:  %v", addr, in)
		if in.Op == isa.BF || in.Op == isa.BNF || in.Op == isa.J || in.Op == isa.JAL {
			tgt := addr + 4 + uint32(in.Imm)*4
			if names := byAddr[tgt]; len(names) > 0 {
				fmt.Fprintf(&sb, "  <%s>", names[0])
			} else {
				fmt.Fprintf(&sb, "  <%08x>", tgt)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
