package tcp

import (
	"bytes"
	"testing"
	"time"
)

// TestOnDataCopyOnCallbackExactBytes echoes a stream back through the
// auto-read path, under loss so out-of-order segments are held and
// drained too. The server's OnData hands the slice it receives straight
// to Write, which copies it; the slice lives in the arriving segment's
// pooled buffer and is valid only while the callback runs. Under the
// pooldebug tag, released buffers are poisoned, so a callback reading
// bytes after their buffer went back to the pool would corrupt the echo.
func TestOnDataCopyOnCallbackExactBytes(t *testing.T) {
	n := newTestNet(t, 5, 0.03)
	opts := Options{SendBufferSize: 65535}
	data := pattern(60_000)
	n.t2.Listen(80, opts, func(c *Conn) {
		c.OnData(func(b []byte) {
			if w, err := c.Write(b); w != len(b) || err != nil {
				t.Errorf("echo Write took %d of %d bytes: %v", w, len(b), err)
			}
		})
	})
	var echo sink
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	if err != nil {
		t.Fatal(err)
	}
	echo.attach(c)
	c.OnEstablished(func() { pump(c, data, false) })
	n.k.RunFor(5 * time.Minute)
	if !bytes.Equal(echo.data, data) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(echo.data), len(data))
	}
	if c.Stats().Retransmits+c.Stats().FastRetransmits == 0 {
		t.Fatal("no retransmissions — the out-of-order path was not exercised")
	}
}

// TestSendBufferStaysBounded streams through thousands of write and
// partial-ack cycles with odd-sized writes. Write moves the unacked
// bytes back to the front of the backing array instead of reallocating,
// so the array is allocated only while it grows, and never grows past
// one append growth of SendBufferSize.
func TestSendBufferStaysBounded(t *testing.T) {
	n := newTestNet(t, 3, 0)
	opts := Options{SendBufferSize: 8000}
	received, eof := 0, false
	n.t2.Listen(80, Options{}, func(c *Conn) {
		c.OnData(func(b []byte) { received += len(b) })
		c.OnEOF(func() { eof = true })
	})
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	if err != nil {
		t.Fatal(err)
	}
	const total = 6_000_000
	chunk := pattern(777)
	sent, cycles, maxCap, arrays := 0, 0, 0, 0
	var end *byte // last byte of sndBuf's backing array: one per array
	write := func() {
		for sent < total {
			w, err := c.Write(chunk[:min(len(chunk), total-sent)])
			if err != nil || w == 0 {
				break
			}
			sent += w
			cycles++
			b := c.sndBuf[:cap(c.sndBuf)]
			maxCap = max(maxCap, len(b))
			if p := &b[len(b)-1]; p != end {
				end = p
				arrays++
			}
		}
		if sent == total {
			c.Close()
		}
	}
	c.OnWriteSpace(write)
	c.OnEstablished(write)
	n.k.RunFor(time.Minute)
	if received != total || !eof {
		t.Fatalf("received %d of %d bytes (eof %v)", received, total, eof)
	}
	if cycles < 10_000 {
		t.Fatalf("only %d write cycles", cycles)
	}
	if maxCap > 2*opts.SendBufferSize {
		t.Fatalf("send buffer grew to %d bytes for a %d-byte SendBufferSize", maxCap, opts.SendBufferSize)
	}
	if arrays > 8 {
		t.Fatalf("send buffer reallocated %d times over %d writes", arrays, cycles)
	}
}

// TestSteadyStateWriteAckZeroAlloc: once a connection is established and
// its buffers are warm, writing a chunk and running until it is acked
// allocates nothing on either end.
func TestSteadyStateWriteAckZeroAlloc(t *testing.T) {
	n := newTestNet(t, 1, 0)
	received := 0
	n.t2.Listen(80, Options{}, func(c *Conn) {
		c.OnData(func(b []byte) { received += len(b) })
	})
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.k.RunFor(time.Second)
	chunk := pattern(1000)
	cycle := func() {
		if w, err := c.Write(chunk); w != len(chunk) || err != nil {
			t.Fatalf("Write took %d of %d bytes: %v", w, len(chunk), err)
		}
		n.k.RunFor(time.Second)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state write/ack cycle: %v allocs, want 0", allocs)
	}
	if want := 1000 * (200 + 201); received != want || c.bytesUnsent() != 0 || c.sndUna != c.sndNxt {
		t.Fatalf("received %d of %d bytes; %d unsent, %d unacked", received, want, c.bytesUnsent(), c.sndNxt-c.sndUna)
	}
}
