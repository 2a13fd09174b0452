package exp

import (
	"strings"
	"testing"
)

// TestBindTitles binds every experiment with the values the CI smokes
// pass and pins the exact title each returns: the suffix names every
// override that reshaped the run, and never the -shards worker count.
func TestBindTitles(t *testing.T) {
	cases := []struct {
		id     string
		vals   map[string]string
		shards int
		want   string
	}{
		{"E5", map[string]string{"faults": "mixed", "topo": "waxman:gw=16"}, 4,
			"Cost of generality: header and retransmission overhead"},
		{"E11", map[string]string{"faults": "mixed"}, 1,
			"Recovery under scripted failure: fault injection, reconvergence, blackout loss [-faults mixed]"},
		{"E12", map[string]string{"topo": "waxman:gw=16"}, 1,
			"Scale: convergence, forwarding cost and conservation on a generated internet [-topo waxman:gw=16]"},
		{"E13", map[string]string{"workload": "naive=1,alpha=1.1,min=30000,max=2000000"}, 1,
			"Congestion collapse: goodput vs offered load through the cliff [-workload naive=1,alpha=1.1,min=30000,max=2000000]"},
		{"E13", map[string]string{"qdisc": "red", "cc": "reno"}, 1,
			"Congestion collapse: goodput vs offered load through the cliff [-qdisc red] [-cc reno]"},
		{"E13-T", map[string]string{"ttopo": "transitstub", "qdisc": "droptail+ecn", "cc": "naive+newreno"}, 1,
			"Policy tournament: gateway queue policy x host congestion response [4-cell grid] [-ttopo transitstub]"},
		{"E13-T", map[string]string{"cc": "reno"}, 1,
			"Policy tournament: gateway queue policy x host congestion response [3-cell grid]"},
		{"E14", map[string]string{"stopo": "transitstub:gw=3,stubs=2,hosts=1,mix=0", "sfracs": "10,20"}, 1,
			"Survivability frontier: cut-set-targeted vs random failure at matched budgets [-stopo transitstub:gw=3,stubs=2,hosts=1,mix=0] [-sfracs 10,20]"},
		{"E15", nil, 2,
			"Names layer: service continuity by name through directory crash and renumbering"},
		{"E16", nil, 4,
			"Sharded kernel: 2000 gateways under conservative link-delay synchronization"},
	}
	for _, tc := range cases {
		e, ok := ByID(tc.id)
		if !ok {
			t.Fatalf("no experiment %s", tc.id)
		}
		got, err := e.With(tc.vals, tc.shards)
		if err != nil {
			t.Fatalf("%s %v: %v", tc.id, tc.vals, err)
		}
		if got.Title != tc.want {
			t.Errorf("%s %v: title\n got %q\nwant %q", tc.id, tc.vals, got.Title, tc.want)
		}
		if got.Run == nil {
			t.Errorf("%s: bound to no driver", tc.id)
		}
	}
}

// TestBindErrors pins that a malformed value is an error naming the
// flag it came from.
func TestBindErrors(t *testing.T) {
	cases := []struct {
		id, flag, val string
	}{
		{"E11", "faults", "no-such-preset"},
		{"E12", "topo", "hexagon:gw=4"},
		{"E13", "workload", "bogus=1"},
		{"E13", "qdisc", "fifo"},
		{"E13", "cc", "bogus"},
		{"E13-T", "cc", "bogus"},
		{"E13-T", "ttopo", "mesh"},
		{"E14", "stopo", "hexagon:gw=4"},
		{"E14", "sfracs", "0"},
	}
	for _, tc := range cases {
		e, _ := ByID(tc.id)
		_, err := e.With(map[string]string{tc.flag: tc.val}, 1)
		if err == nil {
			t.Errorf("%s -%s %q: no error", tc.id, tc.flag, tc.val)
		} else if !strings.Contains(err.Error(), "-"+tc.flag+" ") {
			t.Errorf("%s -%s %q: error %q does not name the flag", tc.id, tc.flag, tc.val, err)
		}
	}
}

// TestParamsConsistent pins that experiments sharing a parameter share
// its declaration, since the command line registers each name once,
// and that every experiment reading parameters can bind them.
func TestParamsConsistent(t *testing.T) {
	usage := map[string]string{}
	for _, e := range All {
		if len(e.Params) > 0 && e.Bind == nil {
			t.Errorf("%s declares parameters but no Bind", e.ID)
		}
		for _, p := range e.Params {
			if u, ok := usage[p.Name]; ok && u != p.Usage {
				t.Errorf("%s: -%s usage differs from an earlier declaration", e.ID, p.Name)
			}
			usage[p.Name] = p.Usage
		}
	}
	if len(usage) != 8 {
		t.Errorf("%d distinct parameters, want 8", len(usage))
	}
}
