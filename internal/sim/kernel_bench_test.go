package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw scheduler throughput: schedule and
// fire chained events.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var chainFn func()
	chainFn = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, chainFn)
		}
	}
	b.ResetTimer()
	k.After(0, chainFn)
	k.Run()
	if n != b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

// BenchmarkTimerChurn measures schedule+cancel cycles, the pattern TCP's
// retransmission timer produces on every ACK.
func BenchmarkTimerChurn(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := k.After(time.Hour, func() {})
		t.Stop()
	}
}

// BenchmarkManyPendingTimers measures heap behaviour with a large pending
// set, as in a simulation with thousands of live connections.
func BenchmarkManyPendingTimers(b *testing.B) {
	k := NewKernel(1)
	for i := 0; i < 10000; i++ {
		k.After(time.Duration(i)*time.Second+time.Hour, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.After(time.Minute, func() {})
		t.Stop()
	}
}

// BenchmarkHeapHold is the classic hold model at the pending-set depth
// measured in the collapse workload (~450 events): each operation pops
// the earliest event, whose callback schedules one replacement at a
// random later instant, so the heap stays at constant depth while every
// sift runs at full height.
func BenchmarkHeapHold(b *testing.B) {
	const depth = 450
	k := NewKernel(1)
	delays := make([]Duration, 4096)
	for i := range delays {
		delays[i] = Duration(k.Rand().Int63n(int64(10 * time.Millisecond)))
	}
	next := 0
	var hold func()
	hold = func() {
		k.After(delays[next%len(delays)], hold)
		next++
	}
	for i := 0; i < depth; i++ {
		hold()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	if k.PendingEvents() != depth {
		b.Fatalf("%d events pending, want %d", k.PendingEvents(), depth)
	}
}
