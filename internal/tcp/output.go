package tcp

import (
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// stackIcmpError aliases the stack's error event for conn.go.
type stackIcmpError = stack.IcmpError

// icmpTypeSourceQuench mirrors icmp.TypeSourceQuench without importing
// the icmp package here.
const icmpTypeSourceQuench = 4

// maxSynRetries and maxRetries bound how long an endpoint keeps trying
// before declaring the conversation dead. Generous, as the paper's
// survivability goal wants: the transport should outlast transient
// outages and rerouting.
const (
	maxSynRetries = 6
	maxRetries    = 14
)

// mss returns the effective maximum segment size: our option bounded by
// what the peer offered.
func (c *Conn) mss() int {
	m := c.opts.MSS
	if c.peerMSS > 0 && c.peerMSS < m {
		m = c.peerMSS
	}
	return m
}

// windowToAdvertise computes the receive window with receiver-side silly
// window syndrome avoidance (RFC 1122 4.2.3.3): the advertised right edge
// never shrinks, and it only advances in increments of at least
// min(MSS, buffer/2).
func (c *Conn) windowToAdvertise() int {
	free := c.opts.WindowSize - len(c.recvQ)
	if free < 0 {
		free = 0
	}
	newEdge := c.rcvNxt + uint32(free)
	if c.rcvAdv == 0 { // before the first SYN exchange
		return free
	}
	if seqLT(newEdge, c.rcvAdv) {
		newEdge = c.rcvAdv // never shrink
	}
	threshold := min(c.mss(), c.opts.WindowSize/2)
	if int(newEdge-c.rcvAdv) < threshold {
		newEdge = c.rcvAdv // hold back dribbles
	}
	c.rcvAdv = newEdge
	return int(newEdge - c.rcvNxt)
}

// bytesUnsent returns how many buffered bytes have never been
// transmitted.
func (c *Conn) bytesUnsent() int {
	off := c.unsentOffset()
	if off > len(c.sndBuf) {
		return 0
	}
	return len(c.sndBuf) - off
}

// unsentOffset is the index into sndBuf of the first never-sent byte.
func (c *Conn) unsentOffset() int {
	off := int(c.sndNxt - c.sndUna)
	if c.finSent {
		off-- // FIN holds one sequence number but no buffer byte
	}
	if off < 0 {
		off = 0
	}
	return off
}

// output transmits as much buffered data as the send window, congestion
// window and Nagle algorithm allow, then the FIN if one is queued and the
// buffer has drained.
func (c *Conn) output() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck:
	default:
		return
	}
	for !c.finSent {
		off := c.unsentOffset()
		avail := len(c.sndBuf) - off
		if avail < 0 {
			avail = 0
		}
		flight := int(c.sndNxt - c.sndUna)
		// The congestion response always has a window; the naive
		// pre-1988 response pins it above any flow-control window, so
		// this min never binds for it.
		wnd := c.sndWnd
		if c.cwnd < wnd {
			wnd = c.cwnd
		}
		usable := wnd - flight
		if avail == 0 {
			break
		}
		if usable <= 0 {
			// Window (or congestion window) closed. If nothing is in
			// flight no ACK will ever reopen it — only a probe can.
			if flight == 0 {
				c.armPersist()
			}
			break
		}
		n := min(c.mss(), avail, usable)
		// Nagle: while data is in flight, hold small segments unless
		// this one empties the buffer and a close is pending.
		if !c.opts.NoNagle && n < c.mss() && flight > 0 && !(c.finQueued && n == avail) {
			break
		}
		// Sender SWS avoidance: refuse sub-MSS segments that neither
		// empty the buffer nor fill the usable window when the window
		// is merely small (not our own buffer's tail). The persist
		// timer overrides the refusal so the connection cannot stall.
		if n < avail && n < c.mss() {
			if flight == 0 {
				c.armPersist()
			}
			break
		}
		c.sendData(c.sndNxt, c.sndBuf[off:off+n], false)
		c.sndNxt += uint32(n)
		c.stats.BytesSent += uint64(n)
	}
	// FIN once everything has been transmitted at least once.
	if c.finQueued && !c.finSent && c.bytesUnsent() == 0 {
		fin := segment{
			srcPort: c.local.Port, dstPort: c.remote.Port,
			seq: c.sndNxt, ack: c.rcvNxt,
			flags: flagFIN | flagACK,
			wnd:   uint16(c.windowToAdvertise()),
		}
		c.transmit(&fin)
		c.sndNxt++
		c.finSent = true
		c.armRexmit()
	}
}

// sendData transmits one data segment and does the shared bookkeeping.
// retrans marks retransmissions (no RTT timing, no boundary recording).
func (c *Conn) sendData(seq uint32, payload []byte, retrans bool) {
	s := segment{
		srcPort: c.local.Port, dstPort: c.remote.Port,
		seq: seq, ack: c.rcvNxt,
		flags: flagACK,
		wnd:   uint16(c.windowToAdvertise()),
	}
	// PSH on segments that empty the buffer: the EOL-becomes-PSH
	// semantics the paper describes.
	off := int(seq - c.sndUna)
	if off+len(payload) >= len(c.sndBuf) {
		s.flags |= flagPSH
	}
	s.payload = payload
	if c.ecnEcho {
		s.flags |= flagECE
	}
	if c.cwrDue {
		s.flags |= flagCWR
		c.cwrDue = false
		c.stats.CWRsSent++
	}
	c.cancelDelack()
	c.ackPending = 0
	c.transmit(&s)
	if !retrans {
		if c.opts.NoRepacketize {
			c.sentSegs = append(c.sentSegs, sentSeg{seq: seq, ln: len(payload)})
		}
		if !c.rttPending {
			c.rttPending = true
			c.rttSeq = seq + uint32(len(payload))
			c.rttStart = c.k.Now()
			c.retransHit = false
		}
		c.armRexmitIfIdle()
	}
}

// transmit hands one segment to IP, serializing through the transport's
// shared scratch buffer (Send copies the wire image before returning).
func (c *Conn) transmit(s *segment) {
	c.stats.SegsSent++
	c.t.node.Send(ipv4.Header{
		Src: c.local.Addr, Dst: c.remote.Addr,
		Proto: ipv4.ProtoTCP, TOS: c.tosFor(s),
	}, s.marshalInto(&c.t.txScratch, c.local.Addr, c.remote.Addr))
}

// tosFor stamps the IP TOS octet: the configured precedence bits, plus
// ECT on data segments of an ECN connection (RFC 3168 sets ECT only on
// segments a gateway may usefully mark — not on SYNs, RSTs, or pure
// ACKs, whose loss or marking the transport cannot signal back).
func (c *Conn) tosFor(s *segment) uint8 {
	tos := c.opts.TOS
	if c.ecnOK && len(s.payload) > 0 && s.flags&(flagSYN|flagRST) == 0 {
		tos |= ipv4.ECT0
	}
	return tos
}

// sendACK emits an immediate pure ACK (also used as the resynchronizing
// ACK for unacceptable segments).
func (c *Conn) sendACK() {
	if c.state == StateSynSent || c.state == StateClosed || c.state == StateListen {
		return
	}
	c.cancelDelack()
	c.ackPending = 0
	s := segment{
		srcPort: c.local.Port, dstPort: c.remote.Port,
		seq: c.sndNxt, ack: c.rcvNxt,
		flags: flagACK,
		wnd:   uint16(c.windowToAdvertise()),
	}
	if c.ecnEcho {
		s.flags |= flagECE
	}
	c.transmit(&s)
}

// --- retransmission timer ---------------------------------------------------

func (c *Conn) currentRTO() sim.Duration {
	rto := c.rto
	if !c.opts.NoBackoff {
		for i := 0; i < c.backoff; i++ {
			rto *= 2
			if rto >= sim.Duration(maxRTO) {
				return sim.Duration(maxRTO)
			}
		}
	}
	return rto
}

func (c *Conn) armRexmit() {
	c.rexmitTimer.Stop()
	c.rexmitTimer = c.k.After(c.currentRTO(), c.rexmitFn)
}

func (c *Conn) armRexmitIfIdle() {
	if !c.rexmitTimer.Pending() {
		c.armRexmit()
	}
}

func (c *Conn) cancelRexmit() {
	c.rexmitTimer.Stop()
}

func (c *Conn) rexmitTimeout() {
	c.stats.Timeouts++
	limit := maxRetries
	if c.state == StateSynSent || c.state == StateSynRcvd {
		limit = maxSynRetries
	}
	if c.backoff >= limit {
		c.teardown(ErrTimeout)
		return
	}
	c.backoff++
	c.rtoRecover = c.sndNxt
	c.cc.OnTimeout(c)
	c.retransmitOldest(false)
	c.armRexmit()
}

// retransmitOldest resends from sndUna. With Repacketize on, the
// retransmission re-slices the byte stream into a maximal segment — the
// flexibility byte sequence numbers buy (the paper's §9 argument). With
// it off, the original transmission boundary is repeated, as a
// packet-sequenced protocol would be forced to.
func (c *Conn) retransmitOldest(fast bool) {
	c.retransHit = true
	switch c.state {
	case StateSynSent:
		c.sendSYN(false)
		c.stats.Retransmits++
		return
	case StateSynRcvd:
		c.sendSYN(true)
		c.stats.Retransmits++
		return
	}
	dataOutstanding := int(c.sndNxt - c.sndUna)
	if c.finSent {
		dataOutstanding--
	}
	if dataOutstanding > len(c.sndBuf) {
		dataOutstanding = len(c.sndBuf)
	}
	if dataOutstanding > 0 {
		if c.opts.GoBackN {
			// Naive recovery: blast the whole outstanding window.
			for off := 0; off < dataOutstanding; off += c.mss() {
				n := min(c.mss(), dataOutstanding-off)
				c.sendData(c.sndUna+uint32(off), c.sndBuf[off:off+n], true)
				c.stats.Retransmits++
				c.stats.BytesRetrans += uint64(n)
			}
			return
		}
		n := min(c.mss(), dataOutstanding)
		if c.opts.NoRepacketize && len(c.sentSegs) > 0 && c.sentSegs[0].seq == c.sndUna {
			n = min(c.sentSegs[0].ln, dataOutstanding)
		}
		c.sendData(c.sndUna, c.sndBuf[:n], true)
		c.stats.Retransmits++
		c.stats.BytesRetrans += uint64(n)
		return
	}
	if c.finSent && c.sndUna != c.sndNxt {
		fin := segment{
			srcPort: c.local.Port, dstPort: c.remote.Port,
			seq: c.sndNxt - 1, ack: c.rcvNxt,
			flags: flagFIN | flagACK,
			wnd:   uint16(c.windowToAdvertise()),
		}
		c.transmit(&fin)
		c.stats.Retransmits++
	}
	_ = fast
}

// --- zero-window persistence --------------------------------------------------

func (c *Conn) armPersist() {
	if c.persistTimer.Pending() {
		return
	}
	if c.persistIval == 0 {
		c.persistIval = sim.Duration(persistMin)
	}
	c.persistTimer = c.k.After(c.persistIval, c.persistFn)
}

func (c *Conn) cancelPersist() {
	c.persistTimer.Stop()
	c.persistIval = 0
	// Window opened: push out what was waiting.
	c.output()
}

func (c *Conn) persistFire() {
	if c.state == StateClosed {
		return
	}
	if int(c.sndNxt-c.sndUna) > 0 || c.bytesUnsent() == 0 {
		return // in-flight data's ACKs will drive progress
	}
	if c.sndWnd > 0 {
		// Small-window stall (sender SWS hold): the persist timeout
		// overrides the hold and forces out whatever fits.
		off := c.unsentOffset()
		n := min(c.mss(), len(c.sndBuf)-off, c.sndWnd)
		if n > 0 {
			c.sendData(c.sndNxt, c.sndBuf[off:off+n], false)
			c.sndNxt += uint32(n)
			c.stats.BytesSent += uint64(n)
			return
		}
	}
	// Zero window: probe with one already-acknowledged byte. The peer
	// trims it and answers with an ACK carrying its current window.
	c.stats.ZeroWindowProbes++
	probe := segment{
		srcPort: c.local.Port, dstPort: c.remote.Port,
		seq: c.sndNxt - 1, ack: c.rcvNxt,
		flags:   flagACK,
		wnd:     uint16(c.windowToAdvertise()),
		payload: []byte{0},
	}
	c.transmit(&probe)
	c.persistIval *= 2
	if c.persistIval > sim.Duration(persistMax) {
		c.persistIval = sim.Duration(persistMax)
	}
	c.persistTimer = c.k.After(c.persistIval, c.persistFn)
}

// --- delayed ACK ---------------------------------------------------------------

func (c *Conn) armDelack() {
	if c.delackTimer.Pending() {
		return
	}
	c.delackTimer = c.k.After(sim.Duration(delayedAckTime), c.delackFn)
}

func (c *Conn) delackFire() {
	if c.ackPending > 0 {
		c.sendACK()
	}
}

func (c *Conn) cancelDelack() {
	c.delackTimer.Stop()
}
