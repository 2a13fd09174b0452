package main

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/fault"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/survive"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/udp"
	"darpanet/internal/workload"
)

// iteration is one closed-loop pass of a workload: build an internet
// from the seed, run it, check the result. Simulated traffic depends
// only on the seed and the size, never on host speed.
type iteration struct {
	seed  int64
	small bool // reduced sizes, for the self-tests
	m     *meter
	b     *books
	// nets counts the networks of every internet the iteration built.
	nets int
	// group is the sharded kernel group, when the workload runs one.
	group *sim.ShardGroup
}

// check runs an oracle outside the measurement.
func (it *iteration) check(fn func() error) error {
	var err error
	it.m.exclude(func() { err = fn() })
	return err
}

// workloads maps each workload name to its iteration.
var workloads = map[string]func(*iteration) error{
	"collapse":   collapse,
	"scale":      scale,
	"reconverge": reconverge,
}

// t1Bps is the T1 line rate every trunk of the collapse internet runs at.
const t1Bps = 1_544_000.0

// collapseCell is one gateway queue policy paired with one host
// congestion response, set up as E13-T sets up its cells.
type collapseCell struct {
	policy string
	cc     string
}

var (
	collapseCells = []collapseCell{
		{phys.PolicyDropTail, tcp.CCNaive},
		{phys.PolicyRED, tcp.CCReno},
		{phys.PolicyECN, tcp.CCNewReno},
	}
	// collapseLoads are offered loads in T1 multiples: one below the
	// knee, one far past it.
	collapseLoads = []float64{4, 32}
)

// spec derives the cell's traffic mix from exp.E13Workload.
func (c collapseCell) spec() workload.Spec {
	ws := exp.E13Workload()
	ws.VJ = c.cc != tcp.CCNaive
	ws.NaiveRTO = !ws.VJ
	ws.CC = c.cc
	ws.ECN = c.policy == phys.PolicyECN
	return ws
}

// collapse runs E13-T's call sequence over its 12-gateway T1
// transit-stub internet with 512-frame gateway queues: for every cell
// and load, Generate, InstallStaticRoutes, InstallQueuePolicy,
// workload.New/Arm, RunFor, Summarize.
func collapse(it *iteration) error {
	tspec := topo.Spec{Shape: topo.TransitStub, Gateways: 3, StubsPer: 4, Hosts: 1}
	window, drain := 10*time.Second, 5*time.Second
	if it.small {
		window, drain = 3*time.Second, 2*time.Second
	}
	const gatewayQueue = 512
	for _, cell := range collapseCells {
		ws := cell.spec()
		perRate := ws.WithRate(1).OfferedBps()
		policy := phys.PolicySpec{Kind: cell.policy}
		for li, load := range collapseLoads {
			label := fmt.Sprintf("%s/%s@%gxT1", cell.policy, cell.cc, load)
			var nw *core.Network
			var m *topo.Manifest
			it.m.call("topo.generate", setupCall, func() { nw, m = topo.Generate(tspec, it.seed) })
			it.nets += m.Nets
			it.m.call("core.static_routes", setupCall, nw.InstallStaticRoutes)
			it.m.call("stack.queue_policy", setupCall, func() {
				for _, g := range m.GatewayNames() {
					nw.Node(g).InstallQueuePolicy(gatewayQueue, policy)
				}
			})
			var eng *workload.Engine
			it.m.call("workload.arm", setupCall, func() {
				eng = workload.New(nw, m.HostNames(), ws.WithRate(load*t1Bps/perRate), it.seed*1000+int64(li))
				eng.Arm(window)
			})
			if li == 0 && cell == collapseCells[0] {
				it.m.markLiveHeap()
			}
			it.m.call("sim.run", runCall, func() { nw.RunFor(window + drain) })
			var sum workload.Summary
			it.m.call("workload.summarize", otherCall, func() { sum = eng.Summarize(window) })
			if err := it.check(func() error {
				if err := it.b.summary(label, sum); err != nil {
					return err
				}
				return it.b.close(label, nw.Kernel())
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// scale runs E16's call sequence over its 2000-gateway internet in 8
// regions: ManifestOnly, PartitionManifest, GenerateSharded with one
// worker, a cross-region UDP request/response matrix over udp.Transport
// sockets, then Sharded.RunFor.
func scale(it *iteration) error {
	spec, regions := exp.E16Spec(), 8
	pairs, queries, interval := 96, 80, 100*time.Millisecond
	if it.small {
		spec.Gateways, spec.StubsPer, regions = 12, 3, 4
		pairs, queries = 8, 10
	}
	var m *topo.Manifest
	var part *topo.PartitionDef
	var s *topo.Sharded
	it.m.call("topo.generate", setupCall, func() { m = topo.ManifestOnly(spec, it.seed) })
	it.nets = m.Nets
	it.m.call("topo.partition", setupCall, func() { part = topo.PartitionManifest(spec, m, regions, it.seed) })
	it.m.call("topo.sharded_build", setupCall, func() { s = topo.GenerateSharded(spec, it.seed, regions, 1) })
	it.group = s.Group

	var flows []*rrFlow
	if err := it.check(func() error {
		got := s.Manifest
		if got.Nets != m.Nets || got.Gateways != m.Gateways || got.Hosts != m.Hosts ||
			got.Partition.CrossLinks != part.CrossLinks || got.Partition.Regions != part.Regions {
			return fmt.Errorf("sharded build disagrees with its manifest: nets %d/%d, cross links %d/%d",
				got.Nets, m.Nets, got.Partition.CrossLinks, part.CrossLinks)
		}
		it.b.record("manifest %s nets=%d gateways=%d hosts=%d regions=%d cross=%d lookahead=%dus",
			got.Spec, got.Nets, got.Gateways, got.Hosts, part.Regions, part.CrossLinks, part.LookaheadUS)
		flows = crossRegionPairs(s, rand.New(rand.NewSource(it.seed^0x5ca1e)), pairs)
		return nil
	}); err != nil {
		return err
	}
	var err error
	it.m.call("udp.arm", setupCall, func() {
		for i, f := range flows {
			if err = f.arm(s, uint16(7000+i), queries, interval); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	it.m.markLiveHeap()
	runFor := sim.Duration(queries)*interval + 2*time.Second
	it.m.call("sim.run", runCall, func() { s.RunFor(runFor) })

	return it.check(func() error {
		if err := auditPaths(it.b, s, rand.New(rand.NewSource(it.seed^0xa0d17))); err != nil {
			return err
		}
		var sent, got int
		for i, f := range flows {
			it.b.record("rr %d %s->%s sent=%d got=%d stray=%d", i, f.from, f.to, f.sent, f.got, f.stray)
			if f.sent != queries || f.got > f.sent || f.stray != 0 || f.sendErrs != 0 {
				return fmt.Errorf("rr %s->%s: sent %d of %d, %d replies, %d unmatched, %d refused",
					f.from, f.to, f.sent, queries, f.got, f.stray, f.sendErrs)
			}
			sent += f.sent
			got += f.got
		}
		if got == 0 {
			return fmt.Errorf("request/response matrix: none of %d requests answered", sent)
		}
		return it.b.close("sharded", s.Group.Kernels()...)
	})
}

// rrFlow is one UDP request/response pair of the scale matrix.
type rrFlow struct {
	from, to         string
	sent, got, stray int
	// sendErrs counts requests or replies the stack refused to send.
	sendErrs int
}

// crossRegionPairs draws n host pairs whose endpoints sit in different
// regions (any pair, if the internet has one region).
func crossRegionPairs(s *topo.Sharded, rng *rand.Rand, n int) []*rrFlow {
	hosts := s.Manifest.HostNames()
	out := make([]*rrFlow, 0, n)
	for len(out) < n {
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if a == b || (len(s.Regions) > 1 && s.Region(a) == s.Region(b)) {
			continue
		}
		out = append(out, &rrFlow{from: a, to: b})
	}
	return out
}

// arm opens an echo responder on the destination and a client socket
// on the source, and schedules count requests at the given interval.
// Each request carries its sequence number; a reply is matched to an
// outstanding request or counted as stray.
func (f *rrFlow) arm(s *topo.Sharded, port uint16, count int, interval sim.Duration) error {
	srv, cli := s.Net(f.to), s.Net(f.from)
	var echo *udp.Socket
	echo, err := srv.UDP(f.to).Listen(port, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		if echo.SendTo(from, data) != nil {
			f.sendErrs++
		}
	})
	if err != nil {
		return fmt.Errorf("rr %s->%s: responder: %w", f.from, f.to, err)
	}
	outstanding := make([]bool, count)
	sock, err := cli.UDP(f.from).Listen(0, func(_ udp.Endpoint, data []byte, _ ipv4.Header) {
		if len(data) >= 2 {
			if id := int(data[0])<<8 | int(data[1]); id < count && outstanding[id] {
				outstanding[id] = false
				f.got++
				return
			}
		}
		f.stray++
	})
	if err != nil {
		return fmt.Errorf("rr %s->%s: client: %w", f.from, f.to, err)
	}
	dst := udp.Endpoint{Addr: s.Addr(f.to), Port: port}
	body := make([]byte, 64)
	k := cli.Kernel()
	for i := 0; i < count; i++ {
		i := i
		k.After(sim.Duration(i)*interval, func() {
			body[0], body[1] = byte(i>>8), byte(i)
			outstanding[i] = true
			f.sent++
			if sock.SendTo(dst, body) != nil {
				f.sendErrs++
			}
		})
	}
	return nil
}

// auditPaths walks the installed routes for sampled host pairs across
// the region seams: every pair the manifest connects must arrive in
// exactly its BFS-optimal number of gateway hops.
func auditPaths(b *books, s *topo.Sharded, rng *rand.Rand) error {
	m := s.Manifest
	hosts := m.HostNames()
	lan := make(map[string]string, len(hosts))
	for _, nd := range m.NodeDefs {
		if !nd.Forwarding {
			lan[nd.Name] = nd.Nets[0]
		}
	}
	const auditPairs = 64
	for i := 0; i < auditPairs; i++ {
		from, to := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		want, reachable := m.NetHops(from)[lan[to]]
		got, ok := s.PathHops(from, to)
		b.record("audit %s->%s want=%d/%v got=%d/%v", from, to, want, reachable, got, ok)
		if reachable && (!ok || got != want) {
			return fmt.Errorf("audit %s->%s: walk gives %d hops (arrives %v), BFS optimum %d", from, to, got, ok, want)
		}
	}
	return nil
}

// reconverge runs E12's and E14's call sequence over E12's 200-gateway
// mixed-link internet with batched fast RIP: cold convergence polled
// with Network.Converged, a targeted compound fault at a fixed budget,
// a UDP request/response-only workload, and RunFor through
// reconvergence.
func reconverge(it *iteration) error {
	spec := topo.DefaultSpec()
	if it.small {
		spec.Gateways, spec.StubsPer = 6, 3
	}
	const (
		budgetFrac = 0.02
		lead       = time.Second
		window     = 15 * time.Second
		reconv     = 19 * time.Second
	)
	cfg := rip.Config{
		UpdateInterval: 2 * time.Second,
		RouteTimeout:   7 * time.Second,
		GCTimeout:      4 * time.Second,
		TriggeredDelay: 200 * time.Millisecond,
		Batched:        true,
	}
	var nw *core.Network
	var m *topo.Manifest
	it.m.call("topo.generate", setupCall, func() { nw, m = topo.Generate(spec, it.seed) })
	it.nets = m.Nets
	it.m.call("core.enable_rip", setupCall, func() { nw.EnableRIP(cfg, m.GatewayNames()...) })

	// Cold convergence, polled as E12 polls it.
	converged := false
	for waited := sim.Duration(0); ; waited += 100 * time.Millisecond {
		it.m.call("core.converged", otherCall, func() { converged = nw.Converged() })
		if converged || waited >= 5*time.Minute {
			break
		}
		it.m.call("sim.run", runCall, func() { nw.RunFor(100 * time.Millisecond) })
	}
	convergedAt := nw.Now()
	if !converged {
		return fmt.Errorf("RIP did not converge within 5 simulated minutes")
	}
	it.m.call("sim.run", runCall, func() { nw.RunFor(2 * cfg.UpdateInterval) })

	var adj *topo.Adjacency
	var sched fault.Schedule
	it.m.call("survive.analyze", setupCall, func() {
		adj = m.Adjacency()
		an := survive.Analyze(adj)
		sched = an.Targeted(survive.BudgetFor(adj, budgetFrac), lead)
	})
	hopLimit := len(adj.Gateways) + 4
	var in *fault.Injector
	it.m.call("fault.arm", setupCall, func() {
		in = fault.New(nw, sched)
		in.SetHopLimit(hopLimit)
		in.Arm()
	})
	ws := workload.DefaultSpec()
	ws.Bulk, ws.Interactive, ws.Voice, ws.RR = 0, 0, 0, 1
	ws.Rate = 40
	var eng *workload.Engine
	it.m.call("workload.arm", setupCall, func() {
		eng = workload.New(nw, m.HostNames(), ws, it.seed*1000+1)
		eng.Arm(window)
	})
	it.m.markLiveHeap()
	it.m.call("sim.run", runCall, func() { nw.RunFor(lead + reconv) })
	var sum workload.Summary
	it.m.call("workload.summarize", otherCall, func() { sum = eng.Summarize(window) })

	return it.check(func() error {
		it.b.record("converged at %v; schedule %s", convergedAt, sched.String())
		for _, ev := range in.Events() {
			it.b.record("event %+v", ev)
			if ev.Watched {
				it.b.watched++
				if ev.Reconverged {
					it.b.reconverged++
				}
			}
		}
		if it.b.watched == 0 {
			return fmt.Errorf("the injector watched no event")
		}
		if err := checkCensusRoutes(it.b, nw, hopLimit); err != nil {
			return err
		}
		if err := it.b.summary("rr", sum); err != nil {
			return err
		}
		return it.b.close("reconverge", nw.Kernel())
	})
}

// checkCensusRoutes takes the reachability census of the faulted
// internet and walks the forwarding tables for every (node, prefix)
// pair it still connects: each walk must deliver.
func checkCensusRoutes(b *books, nw *core.Network, hopLimit int) error {
	census := nw.PartitionCensus()
	b.record("census components=%d down=%d largest=%d total=%d", census.Components, census.Down, census.Largest, census.Total)
	walks := 0
	for _, name := range nw.Nodes() {
		for _, p := range census.Prefixes(name) {
			if v := nw.CheckRoute(name, p, hopLimit); v != core.RouteDelivered {
				return fmt.Errorf("census connects %s to %s but the forwarding walk ends %s", name, p, v)
			}
			walks++
		}
	}
	b.record("census walks=%d", walks)
	if walks == 0 {
		return fmt.Errorf("census connects no pair")
	}
	return nil
}
