package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel time = %v, want 0", k.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var fired Time
	k.After(5*time.Millisecond, func() { fired = k.Now() })
	k.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after schedule")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopFiredTimer(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(time.Millisecond, func() {})
	k.Run()
	if tm.Stop() {
		t.Fatal("Stop returned true for fired timer")
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	k := NewKernel(1)
	early, late := false, false
	k.After(10*time.Millisecond, func() { early = true })
	k.After(30*time.Millisecond, func() { late = true })
	k.RunUntil(Time(20 * time.Millisecond))
	if !early || late {
		t.Fatalf("early=%v late=%v, want true,false", early, late)
	}
	if k.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want 20ms", k.Now())
	}
	if k.PendingEvents() != 1 {
		t.Fatalf("pending = %d, want 1", k.PendingEvents())
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(10 * time.Millisecond)
	k.RunFor(10 * time.Millisecond)
	if k.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want 20ms", k.Now())
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(10 * time.Millisecond)
	var at Time = -1
	k.At(Time(1*time.Millisecond), func() { at = k.Now() })
	k.Run()
	if at != Time(10*time.Millisecond) {
		t.Fatalf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestHaltStopsRun(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.After(time.Millisecond, func() { n++; k.Halt() })
	k.After(2*time.Millisecond, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("events run = %d, want 1 (halted)", n)
	}
	k.Run()
	if n != 2 {
		t.Fatalf("events run after resume = %d, want 2", n)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewKernel(42), NewKernel(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.After(time.Microsecond, rec)
		}
	}
	k.After(0, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeferRunsAfterQueuedSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.At(0, func() {
		k.Defer(func() { order = append(order, "deferred") })
		order = append(order, "first")
	})
	k.At(0, func() { order = append(order, "second") })
	k.Run()
	want := []string{"first", "second", "deferred"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// nondecreasing time order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.After(Duration(d)*time.Microsecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(1500 * time.Millisecond)
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", a.Seconds())
	}
	if a.Sub(Time(500*time.Millisecond)) != time.Second {
		t.Fatalf("Sub wrong")
	}
	if a.String() != "1.500s" {
		t.Fatalf("String = %q", a.String())
	}
}

// TestKernelFiresInKeyOrder drives the kernel with random At calls (many
// landing on the same instant or in the past), Defer calls from inside
// firing events, and Stops of random pending and already-fired timers,
// and checks every event fires exactly in the order of its (at, seq)
// key: instant first, then scheduling order. The reference is a plain
// list of pending keys searched for its minimum.
func TestKernelFiresInKeyOrder(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	rng := rand.New(rand.NewSource(1))
	k := NewKernel(1)
	pending := map[int]key{}
	timers := map[int]Timer{}
	var seq uint64
	fired := -1
	nextID := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		id := nextID
		nextID++
		if at < k.Now() {
			at = k.Now()
		}
		pending[id] = key{at, seq}
		seq++
		fn := func() {
			fired = id
			if rng.Intn(4) == 0 {
				schedule(k.Now()) // a Defer from inside an event
			}
		}
		if at == k.Now() && rng.Intn(2) == 0 {
			timers[id] = k.Defer(fn)
		} else {
			timers[id] = k.At(at, fn)
		}
	}
	for step := 0; step < 30000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			// Coarse instants so ties are common; some in the past.
			schedule(k.Now() + Time(rng.Intn(8)-2)*Time(time.Millisecond))
		case r < 7 && nextID > 0:
			id := rng.Intn(nextID)
			_, want := pending[id]
			tm := timers[id]
			if got := tm.Stop(); got != want {
				t.Fatalf("step %d: Stop(%d) = %v, want %v", step, id, got, want)
			}
			delete(pending, id)
		default:
			want, wantKey := -1, key{}
			for id, kk := range pending {
				if want < 0 || kk.at < wantKey.at || (kk.at == wantKey.at && kk.seq < wantKey.seq) {
					want, wantKey = id, kk
				}
			}
			fired = -1
			if ok := k.Step(); ok != (want >= 0) {
				t.Fatalf("step %d: Step = %v with %d pending", step, ok, len(pending))
			}
			if want < 0 {
				continue
			}
			if fired != want || k.Now() != wantKey.at {
				t.Fatalf("step %d: fired %d at %v, want %d at %v", step, fired, k.Now(), want, wantKey.at)
			}
			delete(pending, want)
		}
		if k.PendingEvents() != len(pending) {
			t.Fatalf("step %d: %d events pending, reference has %d", step, k.PendingEvents(), len(pending))
		}
	}
}
