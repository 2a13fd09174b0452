// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every component of the darpanet stack — links, gateways, TCP timers,
// routing protocols — is driven by a single Kernel. Time is simulated:
// nothing in the repository reads the wall clock, so a run with a given
// topology, workload and seed is reproducible bit for bit. This is the
// substitution this reproduction makes for the real ARPANET hardware the
// 1988 paper ran on: the simulated substrate exercises the same protocol
// code paths (loss, reordering, fragmentation, failure) under a clock we
// control.
//
// The scheduler is allocation-free in steady state: events live in
// slab-allocated chunks and are recycled through a free list when they
// fire or are stopped, and the pending set is a hand-rolled indexed
// min-heap so cancellation is O(log n) without container/heap's boxing.
// Each heap slot carries a copy of its event's (at, seq) key, so a sift
// compares contiguous slots instead of chasing event pointers.
// Timer handles are values carrying a generation number, so a stale
// handle to a recycled event is inert rather than dangerous.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant in simulated time, expressed as nanoseconds since the
// start of the simulation.
type Time int64

// Duration re-exports time.Duration so callers express intervals in the
// familiar unit constants (time.Millisecond etc.) without importing time.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// event is a scheduled callback. gen increments every time the event
// slot is recycled, invalidating Timer handles from earlier uses of the
// slot.
type event struct {
	gen   uint64
	fn    func()
	index int32 // heap index; -1 once removed
}

// heapEntry is one heap slot: the event's key and the event. seq breaks
// ties so that events scheduled for the same instant run in scheduling
// order (FIFO), which keeps the simulation deterministic.
type heapEntry struct {
	at  Time
	seq uint64
	e   *event
}

func (a *heapEntry) less(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventSlabSize is how many event slots one slab allocation provides.
const eventSlabSize = 256

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use: the entire simulation runs on the caller's goroutine, which is what
// makes it deterministic.
type Kernel struct {
	now    Time
	heap   []heapEntry
	free   []*event
	seq    uint64
	rng    *rand.Rand
	halted bool
	values map[any]any
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Two kernels with the same seed driving the same topology produce
// identical runs.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All protocol and
// link-model randomness (loss draws, jitter, ephemeral ports) must come
// from here, never from the global rand, so that runs are reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Value returns the per-kernel singleton stored under key, or nil. It
// exists so higher layers can share one instance of a resource (e.g. the
// packet buffer pool) across every component driven by this kernel
// without resorting to package globals, which would leak state between
// the isolated kernels a parallel campaign runs.
func (k *Kernel) Value(key any) any {
	if k.values == nil {
		return nil
	}
	return k.values[key]
}

// SetValue stores a per-kernel singleton under key. Keys should be
// unexported zero-size types owned by the storing package, exactly as
// with context values.
func (k *Kernel) SetValue(key, v any) {
	if k.values == nil {
		k.values = make(map[any]any)
	}
	k.values[key] = v
}

// --- event slab and free list ------------------------------------------------

// alloc returns a recycled event slot, growing a fresh slab when the free
// list is empty. Slots keep their generation number across reuse.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	slab := make([]event, eventSlabSize)
	for i := 1; i < eventSlabSize; i++ {
		k.free = append(k.free, &slab[i])
	}
	return &slab[0]
}

// release recycles an event slot: the generation bump invalidates every
// Timer handle issued for the slot's previous life.
func (k *Kernel) release(e *event) {
	e.fn = nil
	e.index = -1
	e.gen++
	k.free = append(k.free, e)
}

// --- indexed min-heap --------------------------------------------------------

func (k *Kernel) heapPush(x heapEntry) {
	k.heap = append(k.heap, x)
	k.siftUp(len(k.heap)-1, x)
}

// heapPopRoot removes the earliest entry and returns its event.
func (k *Kernel) heapPopRoot() *event {
	e := k.heap[0].e
	last := len(k.heap) - 1
	x := k.heap[last]
	k.heap[last] = heapEntry{}
	k.heap = k.heap[:last]
	if last > 0 {
		k.siftDown(0, x)
	}
	e.index = -1
	return e
}

// heapRemove unlinks an event from an arbitrary heap position.
func (k *Kernel) heapRemove(e *event) {
	i := int(e.index)
	last := len(k.heap) - 1
	x := k.heap[last]
	k.heap[last] = heapEntry{}
	k.heap = k.heap[:last]
	if i != last {
		k.siftDown(i, x)
		k.siftUp(int(x.e.index), x)
	}
	e.index = -1
}

// siftUp places x, which belongs at slot i, by moving it toward the
// root past every parent that sorts after it.
func (k *Kernel) siftUp(i int, x heapEntry) {
	h := k.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].e.index = int32(i)
		i = parent
	}
	h[i] = x
	x.e.index = int32(i)
}

// siftDown places x, which belongs at slot i, by moving it toward the
// leaves past every child that sorts before it.
func (k *Kernel) siftDown(i int, x heapEntry) {
	h := k.heap
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].less(&h[child]) {
			child = right
		}
		if !h[child].less(&x) {
			break
		}
		h[i] = h[child]
		h[i].e.index = int32(i)
		i = child
	}
	h[i] = x
	x.e.index = int32(i)
}

// --- timers ------------------------------------------------------------------

// Timer is a handle to a scheduled event that can be stopped before it
// fires. It is a plain value: the zero Timer is inert, copies are
// interchangeable, and a handle left over from an event that already
// fired (and whose slot has been recycled) safely does nothing.
type Timer struct {
	k   *Kernel
	e   *event
	gen uint64
}

// live reports whether the handle still refers to its original event and
// that event is queued.
func (t *Timer) live() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.index >= 0
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Stopping an already-fired or already-stopped timer is a no-op.
func (t *Timer) Stop() bool {
	if t == nil || !t.live() {
		return false
	}
	e := t.e
	t.e = nil
	t.k.heapRemove(e)
	t.k.release(e)
	return true
}

// Pending reports whether the timer has yet to fire or be stopped.
func (t *Timer) Pending() bool { return t != nil && t.live() }

// At schedules fn to run at instant at. Scheduling in the past (or at the
// present instant) runs the event at the current time but after all events
// already scheduled for that time.
func (k *Kernel) At(at Time, fn func()) Timer {
	if at < k.now {
		at = k.now
	}
	e := k.alloc()
	e.fn = fn
	k.heapPush(heapEntry{at: at, seq: k.seq, e: e})
	k.seq++
	return Timer{k: k, e: e, gen: e.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) Timer {
	return k.At(k.now.Add(d), fn)
}

// Defer schedules fn to run at the current instant, after all events
// already queued for this instant. It is the simulation analogue of
// "process this on the next trip through the event loop".
func (k *Kernel) Defer(fn func()) Timer { return k.At(k.now, fn) }

// Halt stops Run and RunUntil at the next event boundary. Pending events
// remain queued.
func (k *Kernel) Halt() { k.halted = true }

// Step executes the single earliest pending event, advancing the clock to
// its instant. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		at := k.heap[0].at
		e := k.heapPopRoot()
		fn := e.fn
		k.release(e)
		if fn == nil { // cancelled but not yet removed (defensive)
			continue
		}
		k.now = at
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called. It
// returns the final simulated time.
func (k *Kernel) Run() Time {
	k.halted = false
	for !k.halted && k.Step() {
	}
	return k.now
}

// RunUntil executes events with instants <= deadline, then sets the clock
// to deadline (if it has not passed it already) and returns. Events after
// the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.halted = false
	for !k.halted {
		if len(k.heap) == 0 || k.heap[0].at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// RunFor executes events for d of simulated time from now.
func (k *Kernel) RunFor(d Duration) Time { return k.RunUntil(k.now.Add(d)) }

// PendingEvents returns the number of events waiting in the queue. It is
// intended for tests and diagnostics.
func (k *Kernel) PendingEvents() int { return len(k.heap) }
