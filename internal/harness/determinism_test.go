package harness_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// pooledTrafficExperiment builds a seeded datagram workload across a
// gateway — randomized sizes straddling the MTU so fragmentation,
// reassembly and the forwarding fast path all run — and reports metrics
// that fingerprint the delivered byte stream. The disablePool flag flips
// the per-kernel packet pool into pass-through mode, so a campaign run
// with it set is the unpooled control group. exportCounters additionally
// snapshots the kernel's metrics registry into the result (the pooling
// comparison keeps it off: the pool gauges legitimately differ between
// pooled and pass-through runs).
func pooledTrafficExperiment(disablePool, exportCounters bool) func(seed int64) exp.Result {
	return func(seed int64) exp.Result {
		k := sim.NewKernel(seed)
		stack.PoolFor(k).SetDisabled(disablePool)

		l1 := phys.NewP2P(k, "l1", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 600, QueueLimit: 64})
		l2 := phys.NewP2P(k, "l2", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 600, QueueLimit: 64})
		h1 := stack.NewNode(k, "h1")
		gw := stack.NewNode(k, "gw")
		gw.Forwarding = true
		h2 := stack.NewNode(k, "h2")
		n1 := ipv4.MustParsePrefix("10.0.1.0/24")
		n2 := ipv4.MustParsePrefix("10.0.2.0/24")
		i1 := h1.AttachInterface(l1, n1.Host(1), n1)
		g1 := gw.AttachInterface(l1, n1.Host(254), n1)
		g2 := gw.AttachInterface(l2, n2.Host(254), n2)
		i2 := h2.AttachInterface(l2, n2.Host(1), n2)
		i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
		g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
		g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
		i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
		def := ipv4.MustParsePrefix("0.0.0.0/0")
		h1.Table.Add(stack.Route{Prefix: def, Via: g1.Addr, Source: stack.SourceStatic})
		h2.Table.Add(stack.Route{Prefix: def, Via: g2.Addr, Source: stack.SourceStatic})

		var delivered, payloadBytes uint64
		crc := crc32.NewIEEE()
		h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) {
			delivered++
			payloadBytes += uint64(len(p))
			crc.Write(p)
		})

		rng := k.Rand()
		hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
		for i := 0; i < 48; i++ {
			payload := make([]byte, 16+rng.Intn(1400))
			rng.Read(payload)
			at := sim.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			k.After(at, func() { h1.Send(hdr, payload) })
		}
		k.Run()

		r := exp.Result{ID: "DET", Title: "pooled datagram determinism"}
		r.AddMetric("delivered", "datagrams", float64(delivered))
		r.AddMetric("payload_bytes", "B", float64(payloadBytes))
		r.AddMetric("payload_crc32", "", float64(crc.Sum32()))
		r.AddMetric("end_time", "ns", float64(k.Now()))
		if exportCounters {
			r.AddCounters("", k)
		}
		return r
	}
}

// TestCampaignJSONByteIdenticalPoolingOnOff is the acceptance check for
// buffer reuse: the campaign's JSON export must be byte-for-byte
// identical with pooling on or off, at any worker count. Any divergence
// means a pooled buffer leaked live bytes into a result.
func TestCampaignJSONByteIdenticalPoolingOnOff(t *testing.T) {
	const runs = 6
	const baseSeed = 1988
	var want []byte
	var wantDesc string
	for _, poolOff := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			rep := harness.Campaign{Runs: runs, Parallel: workers, BaseSeed: baseSeed}.
				RunFunc("DET", "pooled datagram determinism", pooledTrafficExperiment(poolOff, false))
			if len(rep.Failures) > 0 {
				t.Fatalf("poolOff=%v workers=%d: replica failures: %+v", poolOff, workers, rep.Failures)
			}
			if len(rep.Metrics) == 0 || rep.Metrics[0].Mean == 0 {
				t.Fatalf("poolOff=%v workers=%d: no traffic delivered", poolOff, workers)
			}
			var buf bytes.Buffer
			if err := harness.WriteJSON(&buf, baseSeed, runs, []*harness.Report{rep}); err != nil {
				t.Fatal(err)
			}
			desc := fmt.Sprintf("poolOff=%v workers=%d", poolOff, workers)
			if want == nil {
				want, wantDesc = append([]byte(nil), buf.Bytes()...), desc
				continue
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("campaign JSON diverged: %s vs %s\n--- %s ---\n%s\n--- %s ---\n%s",
					desc, wantDesc, wantDesc, want, desc, buf.Bytes())
			}
		}
	}
}

// TestCampaignCounterMetricsDeterministic is the acceptance check for
// the counter export: with the full registry snapshot riding along as
// ctr/ metrics, the campaign JSON must still be byte-identical at any
// worker count, and the counters must actually be there.
func TestCampaignCounterMetricsDeterministic(t *testing.T) {
	const runs = 6
	const baseSeed = 1988
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		rep := harness.Campaign{Runs: runs, Parallel: workers, BaseSeed: baseSeed}.
			RunFunc("DET", "counter export determinism", pooledTrafficExperiment(false, true))
		if len(rep.Failures) > 0 {
			t.Fatalf("workers=%d: replica failures: %+v", workers, rep.Failures)
		}
		ctrs, forwarded := 0, false
		for _, m := range rep.Metrics {
			if strings.HasPrefix(m.Name, "ctr/") {
				ctrs++
				if m.Name == "ctr/gw/ip/forwarded" && m.Mean > 0 {
					forwarded = true
				}
			}
		}
		if ctrs == 0 || !forwarded {
			t.Fatalf("workers=%d: counter metrics missing (ctr/ count %d, forwarded seen %v)", workers, ctrs, forwarded)
		}
		var buf bytes.Buffer
		if err := harness.WriteJSON(&buf, baseSeed, runs, []*harness.Report{rep}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("campaign JSON diverged at %d workers", workers)
		}
	}
}

// bound returns registered experiment id's driver configured by the
// parameter values vals, as the command line would bind it.
func bound(t *testing.T, id string, vals map[string]string) func(seed int64) exp.Result {
	t.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	e, err := e.With(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run
}

// mustSpec parses a topology spec, failing the test on error.
func mustSpec(t *testing.T, s string) topo.Spec {
	t.Helper()
	spec, err := topo.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCampaignJSONByteIdentical is every generated-internet
// experiment's campaign acceptance check: the aggregated campaign JSON,
// and the distilled summary JSON where the experiment has one, must be
// byte-for-byte identical at campaign parallelism 1 and 3 — and across
// every variant a case lists (E15's per-replica worker counts 1 and 2).
// Replicas share no state and draw every random decision from their
// own seeded streams, so any divergence means a result depends on
// something other than the seed: the fault injector, batched gossip,
// the workload engine, the tournament's scoring and ranking, the
// survivability analysis, or the sharded kernel's barrier exchange.
// Scaled-down variants keep the test quick; the full sweeps are the
// recorded campaigns in EXPERIMENTS.md.
func TestCampaignJSONByteIdentical(t *testing.T) {
	const runs = 3
	collapseWS := workload.DefaultSpec()
	collapseWS.NaiveRTO = true
	surviveWS := exp.E14Workload()
	surviveWS.MaxBytes = 60_000
	// The 2×2 corner of the E13-T grid: the era's status quo and the
	// full RFC 3168 answer.
	var smokeGrid []exp.E13TCell
	for _, kind := range []string{phys.PolicyDropTail, phys.PolicyECN} {
		for _, cc := range []string{tcp.CCNaive, tcp.CCReno} {
			smokeGrid = append(smokeGrid, exp.E13TCell{Policy: phys.PolicySpec{Kind: kind}, CC: cc})
		}
	}
	tournament, err := exp.RunE13TGrid(exp.E13TTopoWaxman, smokeGrid, []float64{1, 6}, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	namesSpec := mustSpec(t, "transitstub:gw=4,stubs=2,hosts=2,dirs=2")

	cases := []struct {
		name, id string
		variants []func(seed int64) exp.Result
		check    func(t *testing.T, s harness.Summary)
	}{
		{name: "E11/mixed", id: "E11", variants: []func(int64) exp.Result{exp.RunE11}},
		{name: "E11/random", id: "E11", variants: []func(int64) exp.Result{
			bound(t, "E11", map[string]string{"faults": "random"})}},
		{name: "E12/waxman", id: "E12", variants: []func(int64) exp.Result{
			bound(t, "E12", map[string]string{"topo": "waxman:gw=16,hosts=1"})}},
		{name: "E13/sweep", id: "E13", variants: []func(int64) exp.Result{
			exp.RunE13Sweep(collapseWS, []float64{1, 6}, 4*time.Second, 4*time.Second)}},
		{name: "E13-T/waxman-2x2", id: "E13-T", variants: []func(int64) exp.Result{tournament},
			check: func(t *testing.T, s harness.Summary) {
				tour := s.(*harness.Tournament)
				if len(tour.Entries) != 4 {
					t.Fatalf("%d leaderboard entries, want 4", len(tour.Entries))
				}
				for _, e := range tour.Entries {
					if e.Topo != exp.E13TTopoWaxman {
						t.Fatalf("entry %q: topo = %q, want %q", e.Name, e.Topo, exp.E13TTopoWaxman)
					}
				}
			}},
		{name: "E14/sweep", id: "E14", variants: []func(int64) exp.Result{
			exp.RunE14Sweep(mustSpec(t, "transitstub:gw=3,stubs=2,hosts=1,mix=0"), surviveWS,
				[]float64{0.10, 0.20}, 4*time.Second, 8*time.Second)},
			check: func(t *testing.T, s harness.Summary) {
				if f := s.(*harness.Frontier); len(f.Rows) != 4 {
					t.Fatalf("frontier has %d rows, want 4", len(f.Rows))
				}
			}},
		{name: "E15/workers1-2", id: "E15", variants: []func(int64) exp.Result{
			exp.RunE15With(namesSpec, 2, 1), exp.RunE15With(namesSpec, 2, 2)},
			check: func(t *testing.T, s harness.Summary) {
				n := s.(*harness.NamesReport)
				if len(n.Rows) != 2 || n.Rows[0].Mode != "name" || n.Rows[1].Mode != "pin" {
					t.Fatalf("names export rows %+v, want [name pin]", n.Rows)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantCampaign, wantSummary []byte
			for v, run := range tc.variants {
				for _, parallel := range []int{1, 3} {
					label := fmt.Sprintf("variant %d, parallel %d", v, parallel)
					rep := harness.Campaign{Runs: runs, Parallel: parallel, BaseSeed: 1988}.RunFunc(tc.id, tc.name, run)
					if len(rep.Failures) > 0 {
						t.Fatalf("%s: replica failures: %+v", label, rep.Failures)
					}
					var campaign, summary bytes.Buffer
					if err := harness.WriteJSON(&campaign, 1988, runs, []*harness.Report{rep}); err != nil {
						t.Fatal(err)
					}
					if d, ok := harness.Distillers[tc.id]; ok {
						s := d.Build(rep)
						tc.check(t, s)
						if err := harness.WriteSummaryJSON(&summary, s); err != nil {
							t.Fatal(err)
						}
					}
					if wantCampaign == nil {
						wantCampaign, wantSummary = campaign.Bytes(), summary.Bytes()
						continue
					}
					if !bytes.Equal(wantCampaign, campaign.Bytes()) {
						t.Fatalf("%s: campaign JSON diverged", label)
					}
					if !bytes.Equal(wantSummary, summary.Bytes()) {
						t.Fatalf("%s: summary JSON diverged", label)
					}
				}
			}
		})
	}
}
