package paper

import (
	"fmt"
	"io"

	"hetsim/internal/obs"
)

// --- Stall breakdown ---------------------------------------------------------

// BreakdownRow is one kernel's cycle attribution on the pulp-4t
// configuration: every cluster cycle of every core classified into
// exactly one obs.Class, summed over the team.
type BreakdownRow struct {
	Name    string
	Cores   int
	Cycles  uint64                 // cluster cycles of the pulp-4t run
	Classes [obs.NumClasses]uint64 // per-class cycles, summed over cores
}

// Total returns the attributed cycle count (Cores x Cycles by the
// exactness invariant).
func (r BreakdownRow) Total() uint64 {
	var t uint64
	for _, c := range r.Classes {
		t += c
	}
	return t
}

// BreakdownTable builds the per-kernel stall breakdown from an observed
// measurement (CampaignOptions.Breakdown). It enforces the
// attribution exactness invariant — each row's class cycles sum to
// exactly Cores x Cycles — and fails loudly if the measurement was not
// observed or a core's accounting leaked.
func (m *Measurements) BreakdownTable() ([]BreakdownRow, error) {
	rows := make([]BreakdownRow, 0, len(m.Suite))
	for _, k := range m.Suite {
		km := m.ByK[k.Name]
		if km.Attr == nil {
			return nil, fmt.Errorf("paper: %s has no attribution; measure with attribution", k.Name)
		}
		row := BreakdownRow{
			Name:    k.Name,
			Cores:   len(km.Attr.Cores),
			Cycles:  km.Cycles[cfgPULP4],
			Classes: km.Attr.Sum(),
		}
		if want := uint64(row.Cores) * row.Cycles; row.Total() != want {
			return nil, fmt.Errorf("paper: %s attribution leaks cycles: classes sum to %d, want %d cores x %d cycles = %d",
				k.Name, row.Total(), row.Cores, row.Cycles, want)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBreakdown prints the stall breakdown as per-class percentages of
// the total core cycles (Cores x Cycles), one row per kernel.
func RenderBreakdown(w io.Writer, rows []BreakdownRow) {
	fmt.Fprintf(w, "%-16s %10s", "Benchmark", "Cycles")
	for _, c := range obs.ClassNames() {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.2fM", r.Name, float64(r.Cycles)/1e6)
		total := float64(r.Total())
		for _, c := range r.Classes {
			fmt.Fprintf(w, " %8.2f%%", 100*float64(c)/total)
		}
		fmt.Fprintln(w)
	}
}
