package hw

import "testing"

func TestMemoryRegionsDisjoint(t *testing.T) {
	type region struct {
		name       string
		base, size uint32
	}
	regions := []region{
		{"tcdm", TCDMBase, DefaultTCDMSize},
		{"evt", EvtBase, 0x100},
		{"dma", DMABase, 0x100},
		{"socctl", SoCCtlBase, 0x100},
		{"l2", L2Base, DefaultL2Size},
	}
	for i, a := range regions {
		for _, b := range regions[i+1:] {
			if a.base < b.base+b.size && b.base < a.base+a.size {
				t.Errorf("regions %s and %s overlap", a.name, b.name)
			}
		}
	}
}

func TestDescriptorLayout(t *testing.T) {
	// The descriptor must fit between L2Base and the text image.
	if DescBase+DescSize > TextBase {
		t.Fatal("descriptor overlaps the text image")
	}
	// Field offsets must be distinct, word-aligned, inside DescSize.
	offs := []uint32{DescEntry, DescIn, DescInLen, DescOut, DescOutLen,
		DescIters, DescThreads, DescArg0, DescArg1, DescArg2, DescArg3,
		DescInLMA, DescOutLMA, DescDataLMA, DescDataLen, DescDataVMA}
	seen := map[uint32]bool{}
	for _, o := range offs {
		if o%4 != 0 || o >= DescSize {
			t.Errorf("offset %#x misaligned or out of range", o)
		}
		if seen[o] {
			t.Errorf("offset %#x duplicated", o)
		}
		seen[o] = true
	}
}

func TestStackBudget(t *testing.T) {
	// Eight cores of stack must still leave most of the TCDM for data.
	if 8*StackSize > DefaultTCDMSize/8 {
		t.Error("stacks consume too much TCDM")
	}
}
