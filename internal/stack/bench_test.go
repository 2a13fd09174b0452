package stack

import (
	"testing"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// benchTopo builds h1 -- gw -- h2 over infinitely fast, zero-delay links
// so the benchmark measures stack cost, not simulated transmission time.
// A raw protocol handler on h2 counts deliveries.
func benchTopo() (*sim.Kernel, *Node, *Node, *uint64) {
	k := sim.NewKernel(1)
	l1 := phys.NewP2P(k, "l1", phys.Config{MTU: 1500})
	l2 := phys.NewP2P(k, "l2", phys.Config{MTU: 1500})

	h1 := NewNode(k, "h1")
	gw := NewNode(k, "gw")
	gw.Forwarding = true
	h2 := NewNode(k, "h2")

	net1 := ipv4.MustParsePrefix("10.0.1.0/24")
	net2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(l1, net1.Host(1), net1)
	g1 := gw.AttachInterface(l1, net1.Host(254), net1)
	g2 := gw.AttachInterface(l2, net2.Host(254), net2)
	i2 := h2.AttachInterface(l2, net2.Host(1), net2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	h1.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g1.Addr, IfIndex: 0, Source: SourceStatic})
	h2.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g2.Addr, IfIndex: 0, Source: SourceStatic})

	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return k, h1, h2, &delivered
}

// BenchmarkForwardHotPath measures the full send -> forward -> deliver
// path across a gateway: serialize at h1, transmit, relay in place at gw,
// deliver and release at h2. The benchguard baseline pins this at
// 0 allocs/op — the tentpole property of the pooled datagram path.
func BenchmarkForwardHotPath(b *testing.B) {
	k, h1, h2, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}

	// Warm the pool, event slabs, qdiscs and flight free lists.
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", *delivered, 64+b.N)
	}
}

// TestForwardHotPathZeroAlloc enforces the benchmark's claim in a plain
// test so `go test` alone catches a regression, not only the bench gate.
func TestForwardHotPathZeroAlloc(t *testing.T) {
	k, h1, h2, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		h1.Send(hdr, payload)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("forwarding hot path allocates %.1f objects per datagram, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// benchREDTopo is benchTopo with a rate-limited egress trunk and RED on
// the gateway. On benchTopo's infinitely fast links the transmitter is
// never busy, so the qdisc is never consulted; here h1's bursts pile up
// behind gw's 8 Mb/s trunk and every queued frame runs the policy's
// EWMA update and early-drop decision.
func benchREDTopo() (*sim.Kernel, *Node, []*phys.PolicyQdisc, *uint64) {
	k := sim.NewKernel(1)
	l1 := phys.NewP2P(k, "l1", phys.Config{MTU: 1500})
	l2 := phys.NewP2P(k, "l2", phys.Config{MTU: 1500, BitsPerSec: 8_000_000})

	h1 := NewNode(k, "h1")
	gw := NewNode(k, "gw")
	gw.Forwarding = true
	h2 := NewNode(k, "h2")

	net1 := ipv4.MustParsePrefix("10.0.1.0/24")
	net2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(l1, net1.Host(1), net1)
	g1 := gw.AttachInterface(l1, net1.Host(254), net1)
	g2 := gw.AttachInterface(l2, net2.Host(254), net2)
	i2 := h2.AttachInterface(l2, net2.Host(1), net2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	h1.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g1.Addr, IfIndex: 0, Source: SourceStatic})
	h2.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g2.Addr, IfIndex: 0, Source: SourceStatic})

	// Wq=1 tracks the burst depth instantly, so the thresholds bite
	// within a single burst and the probabilistic branch really runs.
	qs := gw.InstallQueuePolicy(128, phys.PolicySpec{
		Kind: phys.PolicyRED, MinTh: 16, MaxTh: 64, MaxP: 0.1, Wq: 1})

	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return k, h1, qs, &delivered
}

const redBurst = 32

// redConservation asserts every datagram offered was either delivered
// or accounted as a policy drop — RED drops by design, so conservation
// replaces the exact delivery count of the drop-free benchmarks.
func redConservation(t testing.TB, qs []*phys.PolicyQdisc, delivered, sent uint64) {
	t.Helper()
	drops := uint64(0)
	for _, q := range qs {
		st := q.Stats()
		drops += st.TailDrops + st.EarlyDrops
	}
	if delivered+drops != sent {
		t.Fatalf("conservation: delivered %d + dropped %d != sent %d", delivered, drops, sent)
	}
	if drops == 0 {
		t.Fatal("RED never dropped: the policy branch was not exercised")
	}
}

// BenchmarkForwardHotPathREDPolicy measures the forwarding path through
// a congested RED gateway: each iteration bursts 32 datagrams into the
// rate-limited trunk, so most of them traverse PolicyQdisc.Enqueue —
// EWMA update, drop-probability ramp, rng coin flip — before the kernel
// drains the queue. The benchguard baseline pins this at 0 allocs/op:
// the policy layer must not cost the pooled datagram path its tentpole
// property.
func BenchmarkForwardHotPathREDPolicy(b *testing.B) {
	k, h1, qs, delivered := benchREDTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: ipv4.MustParsePrefix("10.0.2.0/24").Host(1), Proto: 200}

	for i := 0; i < 64; i++ {
		for j := 0; j < redBurst; j++ {
			if err := h1.Send(hdr, payload); err != nil {
				b.Fatal(err)
			}
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < redBurst; j++ {
			h1.Send(hdr, payload)
		}
		k.Run()
	}
	b.StopTimer()
	redConservation(b, qs, *delivered, uint64(64+b.N)*redBurst)
}

// TestForwardHotPathREDZeroAlloc enforces the RED benchmark's claim in
// a plain test, like TestForwardHotPathZeroAlloc does for drop-tail.
func TestForwardHotPathREDZeroAlloc(t *testing.T) {
	k, h1, qs, delivered := benchREDTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: ipv4.MustParsePrefix("10.0.2.0/24").Host(1), Proto: 200}
	rounds := uint64(64)
	for i := 0; i < 64; i++ {
		for j := 0; j < redBurst; j++ {
			if err := h1.Send(hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < redBurst; j++ {
			h1.Send(hdr, payload)
		}
		k.Run()
		rounds++
	})
	if avg != 0 {
		t.Fatalf("RED forwarding path allocates %.1f objects per burst, want 0", avg)
	}
	redConservation(t, qs, *delivered, rounds*redBurst)
}

// BenchmarkSingleHopSend measures origination + local delivery without a
// gateway in between (two hosts, one link).
func BenchmarkSingleHopSend(b *testing.B) {
	k := sim.NewKernel(1)
	l := phys.NewP2P(k, "l", phys.Config{MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.1.0/24")
	h1 := NewNode(k, "h1")
	h2 := NewNode(k, "h2")
	i1 := h1.AttachInterface(l, net.Host(1), net)
	i2 := h2.AttachInterface(l, net.Host(2), net)
	i1.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(i1.Addr, i1.NIC.Addr())
	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: i2.Addr, Proto: 200}
	for i := 0; i < 64; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.StopTimer()
	if delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", delivered, 64+b.N)
	}
}

// TestPoolRecyclesForwardBuffers pins the mechanism, not just the absence
// of allocation: after warmup every datagram is served from the free list.
func TestPoolRecyclesForwardBuffers(t *testing.T) {
	k, h1, h2, _ := benchTopo()
	pool := PoolFor(k)
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
	for i := 0; i < 16; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	before := pool.Stats()
	for i := 0; i < 100; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	after := pool.Stats()
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Fatalf("steady state had %d pool misses, want 0", misses)
	}
	// Free-list invariant: every buffer returned (and not discarded) is
	// either on a free list or handed out again.
	if got, want := uint64(pool.Free()), after.Puts-after.Discards-after.Hits; got != want {
		t.Fatalf("free-list accounting off: free=%d, puts-discards-hits=%d", got, want)
	}
	// With the kernel drained, no buffer is in flight: every buffer drawn
	// came back.
	if after.Gets != after.Puts || after.Puts == 0 {
		t.Fatalf("buffers in flight after drain: gets=%d puts=%d", after.Gets, after.Puts)
	}
}

// BenchmarkRouteLookupSmall measures the linear longest-prefix scan at
// the size a collapse-workload gateway holds: 24 routes, under the index
// threshold, behind the node's usable filter (interface up), with the
// destinations cycling over every route including the default.
func BenchmarkRouteLookupSmall(b *testing.B) {
	k := sim.NewKernel(1)
	n := NewNode(k, "gw")
	for i := 0; i < 2; i++ {
		p := ipv4.Prefix{Addr: ipv4.AddrFrom4(192, 168, byte(i), 0), Bits: 24}
		n.AttachInterface(phys.NewP2P(k, "l", phys.Config{}), p.Host(1), p)
	}
	var dsts []ipv4.Addr
	for i := 0; i < 21; i++ {
		p := ipv4.Prefix{Addr: ipv4.AddrFrom4(10, byte(i/8), byte(i%8)<<5, 0), Bits: 19}
		n.Table.Add(Route{Prefix: p, Via: ipv4.AddrFrom4(192, 168, byte(i%2), 2), IfIndex: i % 2, Metric: 1 + i%4, Source: SourceRIP})
		dsts = append(dsts, p.Host(7))
	}
	n.Table.Add(Route{Prefix: ipv4.Prefix{}, Via: ipv4.AddrFrom4(192, 168, 0, 2), Source: SourceStatic})
	dsts = append(dsts, ipv4.AddrFrom4(172, 16, 0, 1), ipv4.AddrFrom4(192, 168, 1, 9), ipv4.AddrFrom4(192, 168, 0, 9))
	if got := n.Table.Len(); got != 24 {
		b.Fatalf("table holds %d routes, want 24", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Table.Lookup(dsts[i%len(dsts)]); !ok {
			b.Fatal("no route")
		}
	}
}
