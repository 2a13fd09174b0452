package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Frontier is the survivability frontier distilled from an E14 campaign
// report: one row per (attack mode × fraction lost) cell, campaign
// means across replicas, targeted curve first. Like the campaign export
// it derives from, the JSON depends only on (experiment, base seed,
// runs) — never on worker count — so it compares byte for byte across
// parallelism levels.
type Frontier struct {
	SummaryHeader
	Rows []FrontierRow `json:"rows"`
}

// FrontierRow is one attack cell's campaign-mean outcome.
type FrontierRow struct {
	Mode    string  `json:"mode"` // "targeted" or "random"
	LostPct float64 `json:"lost_pct"`

	GoodputFrac float64 `json:"goodput_frac"`
	DoneFrac    float64 `json:"done_frac"`
	Partitions  float64 `json:"partitions"`
	LargestFrac float64 `json:"largest_frac"`
	ReconvP50   float64 `json:"reconv_p50_s"`
	ReconvP90   float64 `json:"reconv_p90_s"`
	ReconvMax   float64 `json:"reconv_max_s"`
	LoopExits   float64 `json:"loop_exits"`
	LostFrames  float64 `json:"lost_frames"`
	LedgerDelta float64 `json:"ledger_delta"`
}

// frontierModes orders the curves: the attack before the control.
var frontierModes = map[string]int{"t": 0, "r": 1}

// BuildFrontier distills a campaign report of the E14 experiment into
// the survivability frontier. Cells are recognised by the
// "s/<t|r>/f<pct>/<metric>" naming convention; rows are sorted targeted
// curve first, then fraction lost ascending, from campaign means only —
// as deterministic as the report it reads.
func BuildFrontier(rep *Report) *Frontier {
	type key struct {
		mode string
		pct  float64
	}
	cells := map[key]*FrontierRow{}
	var order []key
	for _, m := range rep.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "s/")
		if !ok {
			continue
		}
		parts := strings.Split(rest, "/")
		if len(parts) != 3 || !strings.HasPrefix(parts[1], "f") {
			continue
		}
		pct, err := strconv.ParseFloat(parts[1][1:], 64)
		if err != nil {
			continue
		}
		k := key{parts[0], pct}
		row := cells[k]
		if row == nil {
			mode := "targeted"
			if parts[0] == "r" {
				mode = "random"
			}
			row = &FrontierRow{Mode: mode, LostPct: pct}
			cells[k] = row
			order = append(order, k)
		}
		switch parts[2] {
		case "goodput_frac":
			row.GoodputFrac = m.Mean
		case "done_frac":
			row.DoneFrac = m.Mean
		case "partitions":
			row.Partitions = m.Mean
		case "largest_frac":
			row.LargestFrac = m.Mean
		case "reconv_p50_s":
			row.ReconvP50 = m.Mean
		case "reconv_p90_s":
			row.ReconvP90 = m.Mean
		case "reconv_max_s":
			row.ReconvMax = m.Mean
		case "loop_exits":
			row.LoopExits = m.Mean
		case "lost_frames":
			row.LostFrames = m.Mean
		case "ledger_delta":
			row.LedgerDelta = m.Mean
		}
	}

	sort.Slice(order, func(i, j int) bool {
		if order[i].mode != order[j].mode {
			return frontierModes[order[i].mode] < frontierModes[order[j].mode]
		}
		return order[i].pct < order[j].pct
	})
	f := &Frontier{SummaryHeader: header("darpanet/survive/v1", rep)}
	for _, k := range order {
		f.Rows = append(f.Rows, *cells[k])
	}
	return f
}

// Lines renders one console line per frontier row.
func (f *Frontier) Lines() []string {
	var out []string
	for _, r := range f.Rows {
		out = append(out, fmt.Sprintf("%-8s %5.1f%% lost: goodput %.2f of baseline, %.1f partitions, largest %.2f",
			r.Mode, r.LostPct, r.GoodputFrac, r.Partitions, r.LargestFrac))
	}
	return out
}
