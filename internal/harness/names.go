package harness

import (
	"fmt"
	"sort"
	"strings"
)

// NamesReport is the naming-layer outcome distilled from an E15
// campaign report: one row per resolution mode (name-based first, then
// the address-pinned baseline), campaign means across replicas. Like
// the campaign export it derives from, the JSON depends only on
// (experiment, base seed, runs) — never on worker count — so it
// compares byte for byte across parallelism levels and shard counts.
type NamesReport struct {
	SummaryHeader
	Rows []NamesRow `json:"rows"`
}

// NamesRow is one resolution mode's campaign-mean outcome.
type NamesRow struct {
	Mode string `json:"mode"` // "name" or "pin"

	Attempts     float64 `json:"attempts"`
	Completed    float64 `json:"completed"`
	Continuity   float64 `json:"continuity"`
	ResolveP50   float64 `json:"resolve_p50_ms"`
	ResolveP90   float64 `json:"resolve_p90_ms"`
	CacheHit     float64 `json:"cache_hit"`
	Queries      float64 `json:"queries"`
	Retries      float64 `json:"retries"`
	Failovers    float64 `json:"failovers"`
	Fails        float64 `json:"fails"`
	Autoconf     float64 `json:"autoconf"`
	RegConvS     float64 `json:"reg_conv_s"`
	ReregS       float64 `json:"rereg_s"`
	RestoreSyncS float64 `json:"restore_sync_s"`
	AttachS      float64 `json:"attach_s"`
	AttachOK     float64 `json:"attach_ok"`
}

// namesModes orders the curves: the naming layer before the baseline.
var namesModes = map[string]int{"name": 0, "pin": 1}

// BuildNames distills a campaign report of the E15 experiment into the
// per-mode naming summary. Cells are recognised by the
// "n/<mode>/<metric>" naming convention; rows are sorted name mode
// first, from campaign means only — as deterministic as the report it
// reads.
func BuildNames(rep *Report) *NamesReport {
	rows := map[string]*NamesRow{}
	var order []string
	for _, m := range rep.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "n/")
		if !ok {
			continue
		}
		parts := strings.Split(rest, "/")
		if len(parts) != 2 {
			continue
		}
		row := rows[parts[0]]
		if row == nil {
			row = &NamesRow{Mode: parts[0]}
			rows[parts[0]] = row
			order = append(order, parts[0])
		}
		switch parts[1] {
		case "attempts":
			row.Attempts = m.Mean
		case "completed":
			row.Completed = m.Mean
		case "continuity":
			row.Continuity = m.Mean
		case "resolve_p50_ms":
			row.ResolveP50 = m.Mean
		case "resolve_p90_ms":
			row.ResolveP90 = m.Mean
		case "cache_hit":
			row.CacheHit = m.Mean
		case "queries":
			row.Queries = m.Mean
		case "retries":
			row.Retries = m.Mean
		case "failovers":
			row.Failovers = m.Mean
		case "fails":
			row.Fails = m.Mean
		case "autoconf":
			row.Autoconf = m.Mean
		case "reg_conv_s":
			row.RegConvS = m.Mean
		case "rereg_s":
			row.ReregS = m.Mean
		case "restore_sync_s":
			row.RestoreSyncS = m.Mean
		case "attach_s":
			row.AttachS = m.Mean
		case "attach_ok":
			row.AttachOK = m.Mean
		}
	}

	sort.SliceStable(order, func(i, j int) bool {
		return namesModes[order[i]] < namesModes[order[j]]
	})
	n := &NamesReport{SummaryHeader: header("darpanet/names/v1", rep)}
	for _, k := range order {
		n.Rows = append(n.Rows, *rows[k])
	}
	return n
}

// Lines renders one console line per resolution mode.
func (n *NamesReport) Lines() []string {
	var out []string
	for _, r := range n.Rows {
		out = append(out, fmt.Sprintf("%-5s continuity %.3f (p50 %.1fms, p90 %.1fms, cache hit %.2f, %d attempts)",
			r.Mode, r.Continuity, r.ResolveP50, r.ResolveP90, r.CacheHit, int(r.Attempts)))
	}
	return out
}
