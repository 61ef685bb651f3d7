package cluster

import (
	"sync/atomic"

	"hetsim/internal/cpu"
)

// Optimistic bank-disjoint windows (DESIGN.md §13): while at least two
// cores are awake and the DMA is idle, the run loop runs every awake core
// alone over the next W cycles on the fused executor, logging each TCDM
// access in a cpu.Window, and commits the longest prefix no core could
// have observed another in — every doubly claimed bank won by the core
// served first, no word stored by one core and accessed by another, no
// shared-state event. Arbitration keeps no state across cycles, so that
// prefix is exactly what lockstep stepping produces; the first cycle past
// it is stepped.

// Window sizes, in cycles. W doubles after a window commits in full and
// halves after one is cut short; a window that commits less than
// windowMin backs the next attempt off by 1, 2, 4 … up to backoffMax
// cycles. Scheduling only: results are bit-identical at any value.
const (
	windowMin  = 32
	windowMax  = cpu.WindowMax
	backoffMax = 64
)

// winState is a cluster's window scheduler and its preallocated log.
type winState struct {
	log  *cpu.Window // allocated at the first window
	size uint64      // current W
	next uint64      // no window starts before this cycle
	back uint64      // current back-off after short windows
	team []*cpu.Core // the awake cores of the current window
	ends []uint64    // where each team member's run reached

	// Per-cluster window counters, flushed to the process-wide ones at the
	// end of every Run.
	committed, cycles uint64
	cuts              [cpu.CutEvent + 1]uint64
}

// WindowCounters are the process-wide optimistic-window counters: windows
// committed, windows cut short by cause, cycles committed windowed, and
// the cycles with at least two awake cores that windows compete for.
type WindowCounters struct {
	Committed   uint64
	CutBank     uint64
	CutWord     uint64
	CutEvent    uint64
	Cycles      uint64
	MultiCycles uint64
}

var windowCounters struct {
	committed, cutBank, cutWord, cutEvent, cycles, multi atomic.Uint64
}

// WindowStats reads the process-wide window counters.
func WindowStats() WindowCounters {
	w := &windowCounters
	return WindowCounters{
		Committed: w.committed.Load(), CutBank: w.cutBank.Load(), CutWord: w.cutWord.Load(),
		CutEvent: w.cutEvent.Load(), Cycles: w.cycles.Load(), MultiCycles: w.multi.Load(),
	}
}

// flushWindowCounters adds this cluster's window counters to the
// process-wide ones and clears them.
func (cl *Cluster) flushWindowCounters() {
	ws := &cl.win
	w := &windowCounters
	w.committed.Add(ws.committed)
	w.cutBank.Add(ws.cuts[cpu.CutBank])
	w.cutWord.Add(ws.cuts[cpu.CutWord])
	w.cutEvent.Add(ws.cuts[cpu.CutEvent])
	w.cycles.Add(ws.cycles)
	w.multi.Add(cl.multiCycles)
	ws.committed, ws.cycles, ws.cuts, cl.multiCycles = 0, 0, [cpu.CutEvent + 1]uint64{}, 0
}

// runWindow tries one optimistic window at the current cycle, never past
// horizon. A pass runs every awake core to the window's bound; a core
// refused by the log or reaching shared state cuts the bound to its
// cycle. The pass commits when every core's run reached the final bound
// exactly. Otherwise some core ran past it: everything rolls back and the
// team runs again to the lower bound, which only drops, until a pass
// holds or nothing is left to commit.
func (cl *Cluster) runWindow(horizon uint64) {
	ws := &cl.win
	now := cl.now
	team := ws.team[:0]
	for _, c := range cl.Cores {
		if !c.Halted && !c.Sleeping() {
			team = append(team, c)
		}
	}
	ws.team = team
	if len(team) < 2 {
		return
	}
	if ws.log == nil {
		if len(cl.TCDM.Buf)%4 != 0 {
			// The log tracks whole words; a TCDM with a ragged last
			// word simply never runs windows.
			ws.next = cpu.NextEventNever
			return
		}
		ws.log = cpu.NewWindow(cl.TCDM)
		ws.size = windowMin
		ws.ends = make([]uint64, len(cl.Cores))
	}
	lim := min(now+ws.size, horizon)
	if lim <= now {
		return
	}
	w := ws.log
	accesses, conflicts := cl.TCDM.Accesses, cl.TCDM.Conflicts
	var hits uint64
	if cl.IC != nil {
		hits = cl.IC.Hits
	}
	for _, c := range team {
		c.Save()
	}
	cause := cpu.CutNone
	for {
		w.Begin(now, lim, cl.rrOffset, len(cl.Cores))
		for i, c := range team {
			ws.ends[i] = c.RunWindow(w)
		}
		if cause == cpu.CutNone {
			cause = w.Cause()
		}
		p := w.Lim()
		held := p > now
		for _, e := range ws.ends[:len(team)] {
			held = held && e == p
		}
		if held {
			break
		}
		w.Undo()
		for _, c := range team {
			c.Restore()
		}
		cl.TCDM.Accesses, cl.TCDM.Conflicts = accesses, conflicts
		if cl.IC != nil {
			cl.IC.Hits = hits
		}
		if p == now {
			ws.cuts[cause]++
			ws.shrink(now, 0)
			return
		}
		lim = p
	}

	span := w.Lim() - now
	for _, c := range cl.Cores {
		if c.Halted || c.Sleeping() {
			c.CreditIdle(now, span)
		} else {
			c.Commit()
		}
	}
	n := uint64(len(cl.Cores))
	cl.rrOffset = int((uint64(cl.rrOffset) + span) % n)
	cl.now += span
	cl.multiCycles += span
	ws.committed++
	ws.cycles += span
	if cause == cpu.CutNone {
		ws.size = min(2*ws.size, windowMax)
		ws.back = 0
		return
	}
	ws.cuts[cause]++
	ws.shrink(cl.now, span)
}

// shrink halves W after a window cut short at cycle at, having committed
// span cycles, and backs off the next attempt after a short one.
func (ws *winState) shrink(at, span uint64) {
	ws.size = max(ws.size/2, windowMin)
	if span >= windowMin {
		ws.back = 0
		return
	}
	ws.back = min(max(2*ws.back, 1), backoffMax)
	ws.next = at + ws.back
}
