package exp

import (
	"fmt"
	"strings"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// E13-T — the policy tournament. E13 shows what the 1988 architecture's
// unsolved resource-management problem cost; this experiment searches
// the two policy spaces the architecture left open — the gateway's
// queue discipline and the host's congestion response — by running
// every (policy × response) cell against the same generated internet
// and the same offered traffic, then scoring each cell on the collapse
// curve it produces. The grid is the era's actual design space:
// drop-tail vs RED early drop vs ECN marking at the gateway, and the
// pre-1988 window-blaster vs Tahoe vs Reno/NewReno(+ECN) at the host.
// A third axis — the topology the cells collapse on — is selectable
// but not crossed into the grid: one tournament runs on one internet,
// named in every metric path, so leaderboards from different shapes
// never mix silently.

// Topology identifiers the tournament (and the -ttopo flag) accepts.
const (
	E13TTopoTransitStub = "transitstub"
	E13TTopoWaxman      = "waxman"
)

// e13WaxmanTopo is the tournament's alternative internet: a random
// Waxman graph at the same scale as e13Topo's transit-stub (every
// gateway owns one host LAN, all trunks T1). The transit-stub shape
// concentrates load on a 3-gateway ring; Waxman spreads it over a
// meshier random graph, so the same policies face a different
// contention structure.
func e13WaxmanTopo() topo.Spec {
	return topo.Spec{Shape: topo.Waxman, Gateways: 12, Alpha: 0.25, Beta: 0.4, Hosts: 1, Mix: false}
}

// E13TTopoSpec resolves a tournament topology id to the generated
// internet it runs on. The empty id means the default transit-stub.
func E13TTopoSpec(id string) (topo.Spec, error) {
	switch id {
	case "", E13TTopoTransitStub:
		return e13Topo(), nil
	case E13TTopoWaxman:
		return e13WaxmanTopo(), nil
	}
	return topo.Spec{}, fmt.Errorf("e13t: unknown topology %q (want %q or %q)",
		id, E13TTopoTransitStub, E13TTopoWaxman)
}

// E13TCell is one tournament cell: a gateway queue policy paired with a
// host congestion response.
type E13TCell struct {
	Policy phys.PolicySpec
	CC     string
}

// Name renders the cell as "<policy-kind>/<cc>", the key used in
// metric paths and the leaderboard.
func (c E13TCell) Name() string {
	kind := c.Policy.Kind
	if kind == "" {
		kind = phys.PolicyDropTail
	}
	return kind + "/" + c.CC
}

// workload maps the cell to host behavior: the naive response is the
// full pre-1988 host (go-back-N recovery, fixed no-backoff timer),
// while tahoe and reno ride the adaptive-RTO machinery. Hosts offer
// ECN whenever the gateways can mark — only reno answers the echo, so
// an ecn/naive cell measures marking wasted on deaf hosts.
func (c E13TCell) workload() workload.Spec {
	ws := E13Workload()
	if c.CC == tcp.CCNaive {
		ws.VJ, ws.NaiveRTO = false, true
	} else {
		ws.VJ, ws.NaiveRTO = true, false
	}
	ws.CC = c.CC
	ws.ECN = c.Policy.Kind == phys.PolicyECN
	return ws
}

// E13TDefaultGrid is the full 3×4 tournament: every queue policy
// against every congestion response.
func E13TDefaultGrid() []E13TCell {
	var cells []E13TCell
	for _, kind := range []string{phys.PolicyDropTail, phys.PolicyRED, phys.PolicyECN} {
		for _, cc := range []string{tcp.CCNaive, tcp.CCTahoe, tcp.CCReno, tcp.CCNewReno} {
			cells = append(cells, E13TCell{Policy: phys.PolicySpec{Kind: kind}, CC: cc})
		}
	}
	return cells
}

// e13tLoads is the tournament's offered-load sweep: below the knee, at
// the knee drop-tail/naive shows, and twice past it — E13's full curve
// shows the cliff only bites beyond 16x, so the sweep must reach 32x
// for collapse ratios to separate the cells. Four points per cell keep
// the full 9-cell grid affordable.
var e13tLoads = []float64{1, 4, 16, 32}

// The tournament measures over E13's own window: the retransmission
// storm that produces the cliff takes ~10 simulated seconds to build,
// so a shorter window under-reports the collapse and flattens the grid.
const (
	e13tWindow = e13Window
	e13tDrain  = e13Drain
)

// RunE13T runs the default 3×4 tournament on the transit-stub internet.
func RunE13T(seed int64) Result {
	return runE13T(seed, E13TTopoTransitStub, e13Topo(), E13TDefaultGrid(), e13tLoads, e13tWindow, e13tDrain)
}

// RunE13TGrid returns a tournament driver over a custom grid and
// topology — how the -ttopo/-qdisc/-cc flags shape the run, and how
// the determinism test runs a 2×2 grid on a short sweep. An empty
// topoID selects the default transit-stub internet.
func RunE13TGrid(topoID string, cells []E13TCell, loads []float64, window, drain sim.Duration) (func(seed int64) Result, error) {
	if topoID == "" {
		topoID = E13TTopoTransitStub
	}
	tspec, err := E13TTopoSpec(topoID)
	if err != nil {
		return nil, err
	}
	if loads == nil {
		loads = e13tLoads
	}
	if window == 0 {
		window = e13tWindow
	}
	if drain == 0 {
		drain = e13tDrain
	}
	return func(seed int64) Result { return runE13T(seed, topoID, tspec, cells, loads, window, drain) }, nil
}

// paramTTopo selects the internet the tournament collapses on.
var paramTTopo = Param{"ttopo", "E13-T topology id: transitstub (default) or waxman; carried in every tournament metric path"}

// bindE13T applies -qdisc, -cc and -ttopo: the grid restricted to the
// named policies and responses, on the named internet.
func bindE13T(vals map[string]string, _ int) (func(seed int64) Result, string, error) {
	qdisc, cc, topoID := vals[paramQdisc.Name], vals[paramCC.Name], vals[paramTTopo.Name]
	if qdisc == "" && cc == "" && topoID == "" {
		return RunE13T, "", nil
	}
	policies, ccs, err := parseGrid(qdisc, cc)
	if err != nil {
		return nil, "", err
	}
	var cells []E13TCell
	for _, p := range policies {
		for _, c := range ccs {
			cells = append(cells, E13TCell{Policy: p, CC: c})
		}
	}
	run, err := RunE13TGrid(topoID, cells, nil, 0, 0)
	if err != nil {
		return nil, "", fmt.Errorf("-ttopo %q: %v", topoID, err)
	}
	var suffix string
	if qdisc != "" || cc != "" {
		suffix += fmt.Sprintf(" [%d-cell grid]", len(cells))
	}
	if topoID != "" {
		suffix += " [-ttopo " + topoID + "]"
	}
	return run, suffix, nil
}

// parseGrid parses the -qdisc and -cc values, each a "+"-separated
// list; an empty value selects every policy or response.
func parseGrid(qdisc, cc string) ([]phys.PolicySpec, []string, error) {
	if qdisc == "" {
		qdisc = "droptail+red+ecn"
	}
	if cc == "" {
		cc = "naive+tahoe+reno+newreno"
	}
	var policies []phys.PolicySpec
	for _, s := range strings.Split(qdisc, "+") {
		p, err := phys.ParsePolicySpec(s)
		if err != nil {
			return nil, nil, fmt.Errorf("-qdisc %q: %v", qdisc, err)
		}
		policies = append(policies, p)
	}
	var ccs []string
	for _, s := range strings.Split(cc, "+") {
		s = strings.TrimSpace(s)
		if tcp.CCByName(s) == nil {
			return nil, nil, fmt.Errorf("-cc %q: want one of %s", s, strings.Join(tcp.CCNames(), ", "))
		}
		ccs = append(ccs, s)
	}
	return policies, ccs, nil
}

func runE13T(seed int64, topoID string, tspec topo.Spec, cells []E13TCell, loads []float64, window, drain sim.Duration) Result {
	table := stats.Table{Header: []string{
		"policy", "cc", "collapse", "peak goodput", "knee", "jain", "fct p99", "done"}}

	res := Result{
		ID:    "E13-T",
		Title: fmt.Sprintf("Policy tournament: gateway queue policy x host congestion response on the collapse curve (%s internet)", topoID),
	}

	type scored struct {
		cell E13TCell
		out  e13Outcome
	}
	ran := make([]scored, 0, len(cells))
	for _, cell := range cells {
		// Every cell sees the same seed: identical topology, identical
		// arrival process — only the policies differ.
		out := e13Sweep(seed, tspec, cell.workload(), cell.Policy, loads, window, drain)
		ran = append(ran, scored{cell, out})

		top := out.points[len(out.points)-1].sum
		table.AddRow(
			cell.Policy.String(),
			cell.CC,
			fmt.Sprintf("%.2f", out.collapseRatio),
			stats.HumanRate(out.peakGoodput),
			fmt.Sprintf("%.1fx", out.kneeLoad),
			fmt.Sprintf("%.3f", top.Jain),
			fmt.Sprintf("%.2fs", top.FCT.Percentile(99)),
			fmt.Sprintf("%.0f%%", 100*ratio(top.Completed, top.Started)),
		)

		pre := "t/" + topoID + "/" + cell.Name() + "/"
		res.AddMetric(pre+"collapse_ratio", "", out.collapseRatio)
		res.AddMetric(pre+"peak_goodput", "bps", out.peakGoodput)
		res.AddMetric(pre+"knee_load", "xT1", out.kneeLoad)
		res.AddMetric(pre+"jain", "", top.Jain)
		res.AddMetric(pre+"fct_p99", "s", top.FCT.Percentile(99))
		res.AddMetric(pre+"done", "", ratio(top.Completed, top.Started))
	}
	res.Table = table

	// The headline: best and worst collapse ratio across the grid.
	best, worst := ran[0], ran[0]
	for _, s := range ran[1:] {
		if s.out.collapseRatio > best.out.collapseRatio {
			best = s
		}
		if s.out.collapseRatio < worst.out.collapseRatio {
			worst = s
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%s holds %.0f%% of peak goodput at %.0fx T1 where %s holds %.0f%% — the resource-management answer the 1988 architecture had room for but did not ship.",
		best.cell.Name(), 100*best.out.collapseRatio, loads[len(loads)-1],
		worst.cell.Name(), 100*worst.out.collapseRatio))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"every cell sees the same %q topology and the same offered traffic per seed; rank cells with the campaign leaderboard (darpanet/tournament/v2), not single-seed eyeballing.", topoID))
	return res
}
