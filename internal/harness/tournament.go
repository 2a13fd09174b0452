package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Tournament is the ranked leaderboard distilled from an E13-T campaign
// report: one entry per (gateway policy × congestion response) cell,
// scored on campaign-mean collapse metrics and sorted best first. Like
// the campaign export it derives from, the JSON rendering depends only
// on (experiment, base seed, runs) — never on worker count — so it can
// be compared byte for byte across parallelism levels.
type Tournament struct {
	SummaryHeader
	Entries []TournamentEntry `json:"entries"`
}

// TournamentEntry is one cell's campaign-mean outcome and composite
// score.
type TournamentEntry struct {
	Rank   int     `json:"rank"`
	Name   string  `json:"name"`   // "<topo>/<policy-kind>/<cc>"
	Topo   string  `json:"topo"`   // generated internet the cells ran on
	Policy string  `json:"policy"` // gateway queue policy kind
	CC     string  `json:"cc"`     // host congestion response
	Score  float64 `json:"score"`

	CollapseRatio  float64 `json:"collapse_ratio"`
	PeakGoodputBps float64 `json:"peak_goodput_bps"`
	Jain           float64 `json:"jain"`
	FCTp99         float64 `json:"fct_p99_s"`
	Done           float64 `json:"done"`
}

// Score weights: collapse resistance dominates (it is the experiment's
// question), throughput and fairness matter, tail latency tie-breaks.
const (
	scoreWCollapse = 0.45
	scoreWGoodput  = 0.25
	scoreWJain     = 0.20
	scoreWFCT      = 0.10
)

// BuildTournament distills a campaign report of the E13-T experiment
// into the ranked leaderboard. Cells are recognised by the
// "t/<topo>/<policy>/<cc>/<metric>" naming convention (the pre-v2
// three-part form without the topology id is still accepted, with an
// empty topo field); the composite score is
//
//	0.45·collapse_ratio + 0.25·(peak_goodput/max) + 0.20·jain + 0.10·(min_fct/fct)
//
// — every term in [0,1], computed from campaign means, so the ranking
// is as deterministic as the report it reads. Ties break by cell name.
func BuildTournament(rep *Report) *Tournament {
	cells := map[string]*TournamentEntry{}
	var order []string
	for _, m := range rep.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "t/")
		if !ok {
			continue
		}
		parts := strings.Split(rest, "/")
		var topoID string
		switch len(parts) {
		case 3: // legacy path without a topology id
		case 4:
			topoID, parts = parts[0], parts[1:]
		default:
			continue
		}
		name := parts[0] + "/" + parts[1]
		if topoID != "" {
			name = topoID + "/" + name
		}
		e := cells[name]
		if e == nil {
			e = &TournamentEntry{Name: name, Topo: topoID, Policy: parts[0], CC: parts[1]}
			cells[name] = e
			order = append(order, name)
		}
		switch parts[2] {
		case "collapse_ratio":
			e.CollapseRatio = m.Mean
		case "peak_goodput":
			e.PeakGoodputBps = m.Mean
		case "jain":
			e.Jain = m.Mean
		case "fct_p99":
			e.FCTp99 = m.Mean
		case "done":
			e.Done = m.Mean
		}
	}

	t := &Tournament{SummaryHeader: header("darpanet/tournament/v2", rep)}
	if len(order) == 0 {
		return t
	}

	// Cross-cell normalizers for the relative terms.
	maxGoodput, minFCT := 0.0, 0.0
	for _, name := range order {
		e := cells[name]
		if e.PeakGoodputBps > maxGoodput {
			maxGoodput = e.PeakGoodputBps
		}
		if e.FCTp99 > 0 && (minFCT == 0 || e.FCTp99 < minFCT) {
			minFCT = e.FCTp99
		}
	}
	for _, name := range order {
		e := cells[name]
		goodput := 0.0
		if maxGoodput > 0 {
			goodput = e.PeakGoodputBps / maxGoodput
		}
		fct := 0.0 // no completions at the top load scores zero here
		if e.FCTp99 > 0 && minFCT > 0 {
			fct = minFCT / e.FCTp99
		}
		e.Score = scoreWCollapse*e.CollapseRatio +
			scoreWGoodput*goodput +
			scoreWJain*e.Jain +
			scoreWFCT*fct
		t.Entries = append(t.Entries, *e)
	}
	sort.Slice(t.Entries, func(i, j int) bool {
		if t.Entries[i].Score != t.Entries[j].Score {
			return t.Entries[i].Score > t.Entries[j].Score
		}
		return t.Entries[i].Name < t.Entries[j].Name
	})
	for i := range t.Entries {
		t.Entries[i].Rank = i + 1
	}
	return t
}

// Lines renders one console line per leaderboard entry.
func (t *Tournament) Lines() []string {
	var out []string
	for _, e := range t.Entries {
		out = append(out, fmt.Sprintf("#%d %-28s score %.3f (collapse %.2f, peak %.2f Mb/s, jain %.3f)",
			e.Rank, e.Name, e.Score, e.CollapseRatio, e.PeakGoodputBps/1e6, e.Jain))
	}
	return out
}
