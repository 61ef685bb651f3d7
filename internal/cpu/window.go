package cpu

import (
	"encoding/binary"

	"hetsim/internal/mem"
)

// An optimistic window (DESIGN.md §13) runs every awake core of a team
// alone, one after the other, on the fused executor over the same cycle
// range, and keeps the result only if no core could have observed another.
// TCDM arbitration keeps no state across cycles: on a cycle where the
// cores hit distinct banks every request is granted whatever the service
// order, and where two hit one bank the core served first wins. So a
// stretch of cycles in which
//
//   - every bank claimed twice in one cycle went to the core served
//     first, the other one being denied as stepping would deny it,
//   - no word stored by one core is loaded or stored by another, and
//   - no core touches state outside its registers and the TCDM (I$
//     misses, the event unit, DMA, SoC and L2, SPRs, sleep and wake all
//     end a run),
//
// is exactly what lockstep stepping would have produced, cycle for cycle
// and counter for counter. The Window is the shared conflict log of one
// pass over the team: a per-cycle bank-claim mask, a per-word ownership
// stamp and the undo log of the TCDM words the pass stored. All of it is
// allocated once per cluster, sized by the TCDM and WindowMax.
type Window struct {
	tm         *mem.TCDM
	start, lim uint64
	cause      Cut
	// rot0 and n give the service order: at cycle t the cores are served
	// starting from core (rot0 + t - start) mod n.
	rot0, n uint64

	banks []uint64 // claimed banks per cycle offset from start
	// holders[o*nb+b] is the core that holds bank b at cycle offset o.
	holders []uint8
	nb      int
	// words holds one stamp per TCDM word: the pass generation in the high
	// byte, then a stored bit and the 7-bit id of the core that touched
	// the word first (wordShared once two cores have loaded it).
	words []uint16
	gen   uint16
	// undo holds the pre-window value of each word the pass stored, in a
	// fixed capacity; a pass that would store more is cut.
	undo []wordUndo
}

// WindowMax is the longest window, in cycles, a Window logs.
const WindowMax = 1024

// undoMax bounds the distinct words one pass may store.
const undoMax = 2 * WindowMax

// Cut is why a window pass ended before its limit.
type Cut uint8

const (
	CutNone  Cut = iota
	CutBank      // two cores claimed one bank in one cycle
	CutWord      // a word stored by one core was accessed by another, or the undo log is full
	CutEvent     // a core reached shared state: I$ miss, env access, SPR, sleep
)

const (
	wordStored = 0x80
	wordOwner  = 0x7f
	wordShared = 0x7f
)

// wordUndo is the pre-window value of one stored TCDM word.
type wordUndo struct {
	idx, old uint32
}

// NewWindow builds the conflict log for a cluster's TCDM.
func NewWindow(tm *mem.TCDM) *Window {
	n := len(tm.Buf) / 4
	return &Window{
		tm:      tm,
		banks:   make([]uint64, WindowMax),
		holders: make([]uint8, WindowMax*tm.NumBanks),
		nb:      tm.NumBanks,
		words:   make([]uint16, n),
		undo:    make([]wordUndo, 0, undoMax),
	}
}

// Begin starts a pass over cycles [start, lim) of an n-core cluster whose
// service order at start begins with core rot0; lim-start must not
// exceed WindowMax.
func (w *Window) Begin(start, lim uint64, rot0, n int) {
	w.start, w.lim, w.cause = start, lim, CutNone
	w.rot0, w.n = uint64(rot0), uint64(n)
	clear(w.banks[:lim-start])
	w.undo = w.undo[:0]
	w.gen++
	if w.gen == 1<<8 {
		clear(w.words)
		w.gen = 1
	}
}

// Lim is the pass's commit bound: its limit, lowered to the earliest cut.
func (w *Window) Lim() uint64 { return w.lim }

// Cause is why the pass was cut, CutNone if it reached its limit.
func (w *Window) Cause() Cut { return w.cause }

// cut lowers the commit bound to cycle t.
func (w *Window) cut(t uint64, why Cut) {
	if t < w.lim {
		w.lim, w.cause = t, why
	}
}

// Outcomes of a window claim.
const (
	claimGranted = iota
	// claimDenied: the bank is held this cycle by a core served earlier;
	// the requester stalls one cycle and retries, as its stepped park
	// would.
	claimDenied
	// claimCut: the access cannot be ordered against another core's; the
	// pass is cut at its cycle.
	claimCut
)

// claim logs core id's TCDM access at cycle t. It is denied when the bank
// is already held that cycle by a core served before id in that cycle's
// rotation — exactly the stepped arbitration outcome — and cut when the
// holder is served after id (the holder's run, already done, should have
// been the one denied) or when another core touched one of the access's
// words in a way that makes their order matter. A store's first write to
// a word saves the word for Undo.
func (w *Window) claim(id int, t uint64, addr, size uint32, store bool) int {
	o := t - w.start
	b := w.tm.Bank(addr)
	bit := uint64(1) << uint(b)
	if w.banks[o]&bit != 0 {
		// Positions in the cycle's service order, which starts at core r.
		r := (w.rot0 + o) % w.n
		pos := func(i uint64) uint64 { return (i + w.n - r) % w.n }
		if pos(uint64(w.holders[int(o)*w.nb+b])) < pos(uint64(id)) {
			return claimDenied
		}
		w.cut(t, CutBank)
		return claimCut
	}
	off := addr - w.tm.Base
	first, last := off>>2, (off+size-1)>>2
	for i := first; i <= last; i++ {
		if !w.touch(uint16(id), i, store) {
			w.cut(t, CutWord)
			return claimCut
		}
	}
	w.banks[o] |= bit
	w.holders[int(o)*w.nb+b] = uint8(id)
	return claimGranted
}

// touch records one core's access to word i. Loads by several cores
// share a word freely; any store next to another core's access refuses,
// and so does a first store once the undo log is full.
func (w *Window) touch(id uint16, i uint32, store bool) bool {
	e := w.words[i]
	if e>>8 != w.gen {
		e = w.gen<<8 | id
		if store {
			if !w.save(i) {
				return false
			}
			e |= wordStored
		}
		w.words[i] = e
		return true
	}
	if e&wordOwner == id {
		if store && e&wordStored == 0 {
			if !w.save(i) {
				return false
			}
			w.words[i] = e | wordStored
		}
		return true
	}
	if store || e&wordStored != 0 {
		return false
	}
	w.words[i] = e | wordShared
	return true
}

// save logs word i's value before the pass's first store to it.
func (w *Window) save(i uint32) bool {
	if len(w.undo) == cap(w.undo) {
		return false
	}
	w.undo = append(w.undo, wordUndo{i, binary.LittleEndian.Uint32(w.tm.Buf[4*i:])})
	return true
}

// Undo restores every TCDM word the pass stored.
func (w *Window) Undo() {
	for _, u := range w.undo {
		binary.LittleEndian.PutUint32(w.tm.Buf[4*u.idx:], u.old)
	}
}

// Save snapshots the core's execution state for a window rollback.
func (c *Core) Save() { c.saved = c.execState }

// Restore rolls the core back to its last Save, dropping the charges of
// the window run.
func (c *Core) Restore() { c.execState = c.saved }

// Commit books the charges of the window run.
func (c *Core) Commit() { c.apply(&c.held) }

// RunWindow runs the core alone from the start of w's pass to its commit
// bound — one participant of the pass. It returns the cycle the run
// reached cleanly: the bound itself, or an earlier cycle at which the core
// is about to touch shared state or was refused by the log (the pass is
// cut there). The prologue is RunSolo's: a stall elapses first, a parked
// TCDM access retries as the run's first access. The charges are held
// until Commit.
func (c *Core) RunWindow(w *Window) uint64 {
	end := c.run(w.start, w.lim, w)
	if end < w.lim {
		w.cut(end, CutEvent)
	}
	return end
}
