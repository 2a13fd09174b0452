package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/workload"
)

// books holds one iteration's deterministic outputs: the digest over
// everything the simulation produced, the per-layer counter sums, and
// the first invariant that failed. Everything here runs outside the
// timed calls.
type books struct {
	digest hash.Hash
	counts map[string]uint64
	// offered and delivered total the workload engines' bytes.
	offered, delivered uint64
	// watched and reconverged count the injector's watched events.
	watched, reconverged int
}

func newBooks() *books {
	return &books{digest: sha256.New(), counts: make(map[string]uint64)}
}

// record adds one line to the digest.
func (b *books) record(format string, args ...any) {
	fmt.Fprintf(b.digest, format+"\n", args...)
}

// sum returns the hex digest of everything recorded so far.
func (b *books) sum() string { return hex.EncodeToString(b.digest.Sum(nil)) }

// counterSuffixes are the registry descriptors the per-layer metrics
// are built from, summed over every node of every kernel.
var counterSuffixes = []string{
	"nic/tx_frames", "nic/tx_drops",
	"ip/forwarded", "ip/no_route",
	"aqm/tail_drops", "aqm/early_drops", "aqm/marks",
	"tcp/segs_sent", "tcp/retransmits", "tcp/timeouts", "tcp/bytes_sent", "tcp/bytes_retrans",
	"rip/updates_sent", "rip/entries_sent", "rip/route_changes",
	"pool/hits", "pool/gets",
}

// close takes the counters of one finished internet (every kernel it
// ran on), checks its frame ledger, adds its counters to the layer
// sums and its snapshot to the digest.
func (b *books) close(label string, kernels ...*sim.Kernel) error {
	var all metrics.Snapshot
	for i, k := range kernels {
		snap := metrics.For(k).Snapshot()
		b.record("%s kernel %d: %d counters", label, i, len(snap))
		for _, e := range snap {
			b.record("%s=%d", e.Path, e.Value)
		}
		all = append(all, snap...)
	}
	for _, suffix := range counterSuffixes {
		b.counts[suffix] += all.Sum(suffix)
	}
	return checkLedger(label, all)
}

// checkLedger is the frame-conservation identity: every frame a NIC
// originated is, at the end of the run, consumed at a NIC, consumed by
// a medium, or still travelling. On a sharded internet the boundary
// outboxes report their parked frames as queued, so the identity holds
// over the sum of every region kernel.
//
//	tx_frames + bcast_copies =
//	    rx_frames + rx_lost + rx_down + rx_no_recv
//	  + queue_drops + lost_down + no_match + bcast_fanout
//	  + queued + in_flight
func checkLedger(label string, s metrics.Snapshot) error {
	lhs := s.Sum("nic/tx_frames") + s.Sum("medium/bcast_copies")
	rhs := s.Sum("nic/rx_frames") + s.Sum("nic/rx_lost") +
		s.Sum("nic/rx_down") + s.Sum("nic/rx_no_recv") +
		s.Sum("medium/queue_drops") + s.Sum("medium/lost_down") +
		s.Sum("medium/no_match") + s.Sum("medium/bcast_fanout") +
		s.Sum("medium/queued") + s.Sum("medium/in_flight")
	if lhs != rhs {
		return fmt.Errorf("%s: frame ledger unbalanced: originated %d, accounted %d", label, lhs, rhs)
	}
	if s.Sum("nic/rx_frames") == 0 {
		return fmt.Errorf("%s: no frame delivered; the ledger balances trivially", label)
	}
	return nil
}

// summary checks a workload summary for sanity, adds it to the digest
// and its bytes to the goodput ratio.
func (b *books) summary(label string, s workload.Summary) error {
	b.record("%s summary started=%d established=%d completed=%d offered=%d delivered=%d goodput=%v jain=%v retrans=%d sync=%v burst=%v fct50=%v fct99=%v voice=%v",
		label, s.Started, s.Established, s.Completed, s.OfferedBytes, s.DeliveredBytes,
		s.GoodputBps, s.Jain, s.Retransmits, s.RTOSyncCorr, s.RetransBurstiness,
		s.FCT.Percentile(50), s.FCT.Percentile(99), s.VoiceOnTimeFrac)
	b.offered += s.OfferedBytes
	b.delivered += s.DeliveredBytes
	switch {
	case s.Started == 0:
		return fmt.Errorf("%s: workload admitted no flow", label)
	case s.Established > s.Started || s.Completed > s.Started:
		return fmt.Errorf("%s: %d established, %d completed of %d started", label, s.Established, s.Completed, s.Started)
	case s.Jain < 0 || s.Jain > 1+1e-9 || math.IsNaN(s.Jain):
		return fmt.Errorf("%s: Jain index %v outside [0,1]", label, s.Jain)
	case math.IsNaN(s.GoodputBps) || s.GoodputBps < 0:
		return fmt.Errorf("%s: goodput %v", label, s.GoodputBps)
	case len(s.Goodputs) != s.Started:
		return fmt.Errorf("%s: %d per-flow goodputs for %d flows", label, len(s.Goodputs), s.Started)
	}
	return nil
}

// layerCounts derives the counter-based per-layer metrics from the
// summed counters.
func (b *books) layerCounts() map[string]float64 {
	c := b.counts
	out := map[string]float64{
		"nic.tx_frames":           float64(c["nic/tx_frames"]),
		"nic.tx_drops":            float64(c["nic/tx_drops"]),
		"ip.forwarded":            float64(c["ip/forwarded"]),
		"ip.no_route":             float64(c["ip/no_route"]),
		"aqm.tail_drops":          float64(c["aqm/tail_drops"]),
		"aqm.early_drops":         float64(c["aqm/early_drops"]),
		"aqm.marks":               float64(c["aqm/marks"]),
		"tcp.segs_sent":           float64(c["tcp/segs_sent"]),
		"tcp.retransmits":         float64(c["tcp/retransmits"]),
		"tcp.timeouts":            float64(c["tcp/timeouts"]),
		"tcp.useful_ratio":        ratio(c["tcp/bytes_sent"], c["tcp/bytes_sent"]+c["tcp/bytes_retrans"]),
		"rip.updates_sent":        float64(c["rip/updates_sent"]),
		"rip.entries_sent":        float64(c["rip/entries_sent"]),
		"rip.route_changes":       float64(c["rip/route_changes"]),
		"pool.hit_ratio":          ratio(c["pool/hits"], c["pool/gets"]),
		"workload.goodput_ratio":  ratio(b.delivered, b.offered),
		"fault.reconverged_ratio": ratio(uint64(b.reconverged), uint64(b.watched)),
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
