// Package stack implements the internet node: interfaces bound to media,
// the routing table, IP input, forwarding and output, and protocol demux.
//
// A Node is a host when Forwarding is off and a gateway when it is on —
// deliberately the same type, because the 1988 architecture's gateway is
// nothing more than a host that relays datagrams and keeps no
// per-conversation state (fate-sharing). All transport state lives in the
// endpoints; a gateway can crash and reboot with amnesia and the
// connections passing through it survive.
package stack

import (
	"fmt"
	"sort"
	"strings"

	"darpanet/internal/ipv4"
)

// RouteSource identifies what installed a route.
type RouteSource int

// Route sources, in increasing administrative preference: routes learned
// from another administration (EGP) yield to intra-domain routes (RIP),
// which yield to operator configuration, which yields to direct
// attachment.
const (
	SourceEGP RouteSource = iota
	SourceRIP
	SourceStatic
	SourceDirect
)

// String names the route source as in a routing table dump.
func (s RouteSource) String() string {
	switch s {
	case SourceDirect:
		return "direct"
	case SourceStatic:
		return "static"
	case SourceRIP:
		return "rip"
	case SourceEGP:
		return "egp"
	}
	return "?"
}

// Route is one routing table entry.
type Route struct {
	Prefix  ipv4.Prefix
	Via     ipv4.Addr // next hop; zero for directly connected
	IfIndex int       // outgoing interface
	Metric  int
	Source  RouteSource
}

// String formats the route as a table row.
func (r Route) String() string {
	via := "direct"
	if !r.Via.IsZero() {
		via = "via " + r.Via.String()
	}
	return fmt.Sprintf("%-18s %-16s if%d metric %d (%s)", r.Prefix, via, r.IfIndex, r.Metric, r.Source)
}

// RouteTable is a longest-prefix-match routing table. It is the only
// routing state a node holds — about topology, not about conversations,
// which is precisely the state the paper allows gateways to keep (it can
// be regenerated by the routing protocol after a crash).
//
// Small tables stay a plain slice with linear scans. Once the table
// grows past indexThreshold entries (a transit gateway on a generated
// 2000-gateway internet holds thousands) an index keyed by exact prefix
// takes over both Add's replace scan and Lookup's match scan; the index
// reproduces the linear algorithms' results exactly, including their
// first-wins tie-breaks, so growing past the threshold never changes a
// forwarding decision.
type RouteTable struct {
	routes []Route
	usable func(Route) bool
	idx    *routeIndex
}

// indexThreshold is the table size at which the prefix index is built.
// Below it the slice scans win on constant factors and allocate nothing.
const indexThreshold = 32

// routeIndex accelerates a large table: byPrefix lists route indices per
// exact prefix in insertion order, byPS locates the (prefix, source)
// entry Add replaces, and bits holds the distinct prefix lengths in
// descending order so Lookup can stop at the first length with a usable
// match (a longer prefix beats any source or metric).
type routeIndex struct {
	byPrefix map[ipv4.Prefix][]int32
	byPS     map[psKey]int32
	bits     []int
}

type psKey struct {
	p ipv4.Prefix
	s RouteSource
}

// buildIndex constructs the index from the current slice. Any mutation
// that reorders the slice (Remove, RemoveIf) drops the index; the next
// Add or Lookup over threshold rebuilds it here.
func (t *RouteTable) buildIndex() {
	idx := &routeIndex{
		byPrefix: make(map[ipv4.Prefix][]int32, len(t.routes)),
		byPS:     make(map[psKey]int32, len(t.routes)),
	}
	for i := range t.routes {
		idx.note(t.routes[i], int32(i))
	}
	t.idx = idx
}

// note records one appended route in the index.
func (x *routeIndex) note(r Route, i int32) {
	x.byPS[psKey{r.Prefix, r.Source}] = i
	lst := x.byPrefix[r.Prefix]
	if lst == nil {
		x.addBits(r.Prefix.Bits)
	}
	x.byPrefix[r.Prefix] = append(lst, i)
}

// addBits inserts a prefix length into the descending distinct list.
func (x *routeIndex) addBits(b int) {
	for i, have := range x.bits {
		if have == b {
			return
		}
		if have < b {
			x.bits = append(x.bits, 0)
			copy(x.bits[i+1:], x.bits[i:])
			x.bits[i] = b
			return
		}
	}
	x.bits = append(x.bits, b)
}

// SetUsableFilter installs a predicate consulted at lookup time; routes
// for which it returns false are skipped. The node installs one that
// rejects routes out of downed interfaces, so a learned alternate path
// takes over the moment an interface fails.
func (t *RouteTable) SetUsableFilter(fn func(Route) bool) { t.usable = fn }

// Add installs a route, replacing any existing route to the same prefix
// from the same source. Routes from more-preferred sources shadow
// less-preferred ones at lookup time.
func (t *RouteTable) Add(r Route) {
	if t.idx == nil && len(t.routes) >= indexThreshold {
		t.buildIndex()
	}
	if t.idx != nil {
		if i, ok := t.idx.byPS[psKey{r.Prefix, r.Source}]; ok {
			t.routes[i] = r // position kept: the index stays valid
			return
		}
		t.routes = append(t.routes, r)
		t.idx.note(r, int32(len(t.routes)-1))
		return
	}
	for i := range t.routes {
		if t.routes[i].Prefix == r.Prefix && t.routes[i].Source == r.Source {
			t.routes[i] = r
			return
		}
	}
	t.routes = append(t.routes, r)
}

// AddBatch installs a set of routes with the same semantics as calling
// Add for each in order, but sized for the batch: the slice grows once
// and the index is rebuilt pre-sized, so no incremental rehashing. The
// static-route oracle uses it to install thousands of routes per
// transit gateway on generated internets.
func (t *RouteTable) AddBatch(rs []Route) {
	total := len(t.routes) + len(rs)
	if total < indexThreshold {
		for _, r := range rs {
			t.Add(r)
		}
		return
	}
	if cap(t.routes) < total {
		grown := make([]Route, len(t.routes), total)
		copy(grown, t.routes)
		t.routes = grown
	}
	idx := &routeIndex{
		byPrefix: make(map[ipv4.Prefix][]int32, total),
		byPS:     make(map[psKey]int32, total),
	}
	for i := range t.routes {
		idx.note(t.routes[i], int32(i))
	}
	t.idx = idx
	for _, r := range rs {
		if i, ok := idx.byPS[psKey{r.Prefix, r.Source}]; ok {
			t.routes[i] = r // position kept: the index stays valid
			continue
		}
		t.routes = append(t.routes, r)
		idx.note(r, int32(len(t.routes)-1))
	}
}

// Remove deletes the route to prefix from source. It reports whether a
// route was removed.
func (t *RouteTable) Remove(p ipv4.Prefix, src RouteSource) bool {
	for i := range t.routes {
		if t.routes[i].Prefix == p && t.routes[i].Source == src {
			t.routes = append(t.routes[:i], t.routes[i+1:]...)
			t.idx = nil // indices shifted
			return true
		}
	}
	return false
}

// RemoveIf deletes all routes for which keep returns true and reports how
// many were removed.
func (t *RouteTable) RemoveIf(match func(Route) bool) int {
	kept := t.routes[:0]
	removed := 0
	for _, r := range t.routes {
		if match(r) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	t.routes = kept
	if removed > 0 {
		t.idx = nil // indices shifted
	}
	return removed
}

// Lookup returns the best route for dst: the longest matching prefix,
// breaking ties by source preference and then lower metric.
func (t *RouteTable) Lookup(dst ipv4.Addr) (Route, bool) {
	if t.idx == nil && len(t.routes) >= indexThreshold {
		t.buildIndex()
	}
	if t.idx != nil {
		return t.lookupIndexed(dst)
	}
	best := -1
	for i := range t.routes {
		r := &t.routes[i]
		if !r.Prefix.Contains(dst) {
			continue
		}
		if t.usable != nil && !t.usable(*r) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &t.routes[best]
		switch {
		case r.Prefix.Bits != b.Prefix.Bits:
			if r.Prefix.Bits > b.Prefix.Bits {
				best = i
			}
		case r.Source != b.Source:
			if r.Source > b.Source {
				best = i
			}
		case r.Metric < b.Metric:
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	return t.routes[best], true
}

// lookupIndexed is Lookup over the prefix index. Lengths are tried
// longest first; within one length at most one prefix can cover dst, so
// the first length with a usable match decides and only source and
// metric remain to break ties — the same order, and the same first-wins
// behavior on full ties, as the linear scan, because each prefix's
// candidate list is kept in insertion order.
func (t *RouteTable) lookupIndexed(dst ipv4.Addr) (Route, bool) {
	for _, bits := range t.idx.bits {
		lst := t.idx.byPrefix[ipv4.Prefix{Addr: dst.Mask(bits), Bits: bits}]
		best := -1
		for _, j := range lst {
			r := &t.routes[j]
			if t.usable != nil && !t.usable(*r) {
				continue
			}
			if best < 0 {
				best = int(j)
				continue
			}
			b := &t.routes[best]
			if r.Source > b.Source || (r.Source == b.Source && r.Metric < b.Metric) {
				best = int(j)
			}
		}
		if best >= 0 {
			return t.routes[best], true
		}
	}
	return Route{}, false
}

// Routes returns a copy of all entries, sorted for stable display.
func (t *RouteTable) Routes() []Route {
	out := make([]Route, len(t.routes))
	copy(out, t.routes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr != out[j].Prefix.Addr {
			return out[i].Prefix.Addr < out[j].Prefix.Addr
		}
		return out[i].Prefix.Bits < out[j].Prefix.Bits
	})
	return out
}

// Len returns the number of routes installed.
func (t *RouteTable) Len() int { return len(t.routes) }

// String renders the table one route per line.
func (t *RouteTable) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}
