package harness_test

import (
	"math"
	"testing"

	"darpanet/internal/harness"
)

// TestBuildTournamentRanking pins the scoring layer against a
// hand-built report: score weights, goodput/FCT normalization, the
// zero-FCT guard, rank assignment and the name tie-break.
func TestBuildTournamentRanking(t *testing.T) {
	rep := &harness.Report{
		ID: "E13-T", Title: "fixture", BaseSeed: 7, Runs: 1,
		Metrics: []harness.MetricSummary{
			// Cell A: perfect collapse, best goodput, perfect fairness.
			{Name: "t/ts/red/reno/collapse_ratio", Mean: 1},
			{Name: "t/ts/red/reno/peak_goodput", Mean: 2e6},
			{Name: "t/ts/red/reno/jain", Mean: 1},
			{Name: "t/ts/red/reno/fct_p99", Mean: 2},
			{Name: "t/ts/red/reno/done", Mean: 0.9},
			// Cell B: half the goodput, deep collapse, no completions at
			// the top load (fct 0 must score zero, not blow up).
			{Name: "t/ts/droptail/naive/collapse_ratio", Mean: 0.5},
			{Name: "t/ts/droptail/naive/peak_goodput", Mean: 1e6},
			{Name: "t/ts/droptail/naive/jain", Mean: 0.5},
			{Name: "t/ts/droptail/naive/fct_p99", Mean: 0},
			{Name: "t/ts/droptail/naive/done", Mean: 0},
			// Not a tournament metric: must be ignored.
			{Name: "peak_goodput", Mean: 9e9},
			{Name: "t/odd/shape", Mean: 1},
			{Name: "t/a/b/c/d/too_deep", Mean: 1},
		},
	}
	tour := harness.BuildTournament(rep)
	if tour.Schema != "darpanet/tournament/v2" || len(tour.Entries) != 2 {
		t.Fatalf("tournament = %+v", tour)
	}
	a, b := tour.Entries[0], tour.Entries[1]
	if a.Name != "ts/red/reno" || a.Rank != 1 || b.Name != "ts/droptail/naive" || b.Rank != 2 {
		t.Fatalf("ranking = %s(#%d), %s(#%d)", a.Name, a.Rank, b.Name, b.Rank)
	}
	// A: 0.45·1 + 0.25·1 + 0.20·1 + 0.10·(2/2) = 1.0
	if math.Abs(a.Score-1) > 1e-12 {
		t.Fatalf("score A = %v, want 1", a.Score)
	}
	// B: 0.45·0.5 + 0.25·0.5 + 0.20·0.5 + 0.10·0 = 0.45
	if math.Abs(b.Score-0.45) > 1e-12 {
		t.Fatalf("score B = %v, want 0.45", b.Score)
	}
	if a.Topo != "ts" || a.Policy != "red" || a.CC != "reno" || b.FCTp99 != 0 {
		t.Fatalf("entry fields: %+v %+v", a, b)
	}
}

// TestBuildTournamentLegacyPaths pins the pre-v2 path form: a metric
// without a topology segment still yields a cell, with an empty topo
// field and the short two-part name.
func TestBuildTournamentLegacyPaths(t *testing.T) {
	rep := &harness.Report{
		ID: "E13-T", Title: "legacy", BaseSeed: 1, Runs: 1,
		Metrics: []harness.MetricSummary{
			{Name: "t/red/reno/collapse_ratio", Mean: 1},
			{Name: "t/red/reno/jain", Mean: 1},
		},
	}
	tour := harness.BuildTournament(rep)
	if len(tour.Entries) != 1 {
		t.Fatalf("entries = %+v", tour.Entries)
	}
	e := tour.Entries[0]
	if e.Name != "red/reno" || e.Topo != "" || e.Policy != "red" || e.CC != "reno" {
		t.Fatalf("legacy entry = %+v", e)
	}
}
