package cluster

import (
	"sync/atomic"

	"hetsim/internal/cpu"
)

// The run loop's one scheduler (DESIGN.md §12–13). Before each stepped
// cycle with the DMA idle, it collects the awake cores from their current
// state and grants them a fused run:
//
//   - One awake core runs solo up to the run horizon. Its siblings are
//     halted or asleep, and only an env access of its own, which ends a
//     fused run first, or the idle DMA could wake one.
//   - Two or more run an optimistic bank-disjoint window: every awake core
//     runs alone over the next W cycles on the fused executor, logging
//     each TCDM access in a cpu.Window, and the cluster keeps the longest
//     prefix no core could have observed another in — every doubly
//     claimed bank won by the core served first, no word stored by one
//     core and accessed by another, no shared-state event. Arbitration
//     keeps no state across cycles, so that prefix is exactly what
//     lockstep stepping produces.
//
// Either way the cluster commits the span alike and steps the first cycle
// past it.

// Window sizes, in cycles. W doubles after a window commits in full and
// halves after one is cut short; a window that commits less than
// windowMin backs the next attempt off by 1, 2, 4 … up to backoffMax
// cycles. Scheduling only: results are bit-identical at any value.
const (
	windowMin  = 32
	windowMax  = cpu.WindowMax
	backoffMax = 64
)

// winState is a cluster's fused-run scheduler and its preallocated log.
type winState struct {
	log  *cpu.Window // allocated at the first window
	size uint64      // current W
	next uint64      // no window starts before this cycle; solo runs ignore it
	back uint64      // current back-off after short windows
	team []*cpu.Core // the awake cores of the current grant

	// Per-cluster counters, bumped once per grant and flushed to the
	// process-wide ones at the end of every Run.
	committed, cycles, solo uint64
	cuts                    [cpu.CutEvent + 1]uint64
}

// WindowCounters are the process-wide counters of the fused-run
// scheduler: windows committed, windows cut short by cause, cycles
// committed windowed, the cycles with at least two awake cores that
// windows compete for, cycles run solo, and every cycle simulated. The
// simulated cycles split three ways: solo, windowed, and the rest
// (Stepped), stepped or fast-forwarded idle.
type WindowCounters struct {
	Committed   uint64
	CutBank     uint64
	CutWord     uint64
	CutEvent    uint64
	Cycles      uint64
	MultiCycles uint64
	SoloCycles  uint64
	SimCycles   uint64
}

// Stepped is the simulated cycles that ran neither solo nor windowed.
func (w WindowCounters) Stepped() uint64 { return w.SimCycles - w.SoloCycles - w.Cycles }

var windowCounters struct {
	committed, cutBank, cutWord, cutEvent, cycles, multi, solo, sim atomic.Uint64
}

// WindowStats reads the process-wide scheduler counters.
func WindowStats() WindowCounters {
	w := &windowCounters
	return WindowCounters{
		Committed: w.committed.Load(), CutBank: w.cutBank.Load(), CutWord: w.cutWord.Load(),
		CutEvent: w.cutEvent.Load(), Cycles: w.cycles.Load(), MultiCycles: w.multi.Load(),
		SoloCycles: w.solo.Load(), SimCycles: w.sim.Load(),
	}
}

// flushWindowCounters adds this cluster's scheduler counters and the
// run's sim simulated cycles to the process-wide counters and clears them.
func (cl *Cluster) flushWindowCounters(sim uint64) {
	ws := &cl.win
	w := &windowCounters
	w.committed.Add(ws.committed)
	w.cutBank.Add(ws.cuts[cpu.CutBank])
	w.cutWord.Add(ws.cuts[cpu.CutWord])
	w.cutEvent.Add(ws.cuts[cpu.CutEvent])
	w.cycles.Add(ws.cycles)
	w.multi.Add(cl.multiCycles)
	w.solo.Add(ws.solo)
	w.sim.Add(sim)
	ws.committed, ws.cycles, ws.solo, ws.cuts, cl.multiCycles = 0, 0, 0, [cpu.CutEvent + 1]uint64{}, 0
}

// grant runs the awake cores fused from the current cycle, never past
// horizon: a lone one solo, two or more as an optimistic window once the
// window back-off has passed.
func (cl *Cluster) grant(horizon uint64) {
	ws := &cl.win
	team := ws.team[:0]
	for _, c := range cl.Cores {
		if !c.Halted && !c.Sleeping() {
			team = append(team, c)
		}
	}
	ws.team = team
	switch {
	case len(team) == 1:
		if span := team[0].RunSolo(cl.now, horizon) - cl.now; span > 0 {
			ws.solo += span
			cl.commit(span)
		}
	case len(team) >= 2 && cl.now >= ws.next:
		cl.runWindow(team, horizon)
	}
}

// commit books span fused cycles from the current one: the awake cores'
// held charges, the idle cores' Sleep or Stall credit, and the rotation.
func (cl *Cluster) commit(span uint64) {
	now := cl.now
	for _, c := range cl.Cores {
		if c.Halted || c.Sleeping() {
			c.CreditIdle(now, span)
		} else {
			c.Commit()
		}
	}
	cl.rrOffset = int((uint64(cl.rrOffset) + span) % uint64(len(cl.Cores)))
	cl.now += span
}

// runWindow tries one optimistic window over the team at the current
// cycle, never past horizon. A pass runs every team member to the
// window's bound; a core refused by the log or reaching shared state cuts
// the bound to its cycle. The pass commits when every core's run reached
// the final bound exactly. Otherwise some core ran past it: everything
// rolls back and the team runs again to the lower bound, which only
// drops, until a pass holds or nothing is left to commit.
func (cl *Cluster) runWindow(team []*cpu.Core, horizon uint64) {
	ws := &cl.win
	now := cl.now
	if ws.log == nil {
		if len(cl.TCDM.Buf)%4 != 0 {
			// The log tracks whole words; a TCDM with a ragged last
			// word simply never runs windows.
			ws.next = cpu.NextEventNever
			return
		}
		ws.log = cpu.NewWindow(cl.TCDM)
		ws.size = windowMin
	}
	lim := min(now+ws.size, horizon) // the run loop keeps now below horizon
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
		// No run ends below the final bound: one that stopped short of
		// the bound it was given cut the bound there.
		var top uint64
		for _, c := range team {
			top = max(top, c.RunWindow(w))
		}
		if cause == cpu.CutNone {
			cause = w.Cause()
		}
		p := w.Lim()
		if p > now && top == p {
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
	cl.commit(span)
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
