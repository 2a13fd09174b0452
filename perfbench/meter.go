package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// callKind says which end-to-end metric a timed call feeds.
type callKind int

const (
	// setupCall builds or arms the internet: it counts toward setup_s.
	setupCall callKind = iota
	// runCall advances simulated time: it is the denominator of
	// frames_per_s.
	runCall
	// otherCall is any other call of the experiment's sequence (the
	// convergence poll, Summarize): it counts only toward wall_s.
	otherCall
)

// span is one timed call into a layer, recorded in traced iterations.
// Start and End are offsets from the run's epoch; Parent indexes the
// enclosing span (-1 for an iteration root); Iter is shared by every
// span of one iteration.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Iter   int           `json:"iter"`
}

// meter times one iteration. Every call the benchmark makes into the
// simulator goes through call; oracle work (correctness checks,
// digesting, input generation) goes through exclude, which keeps its
// host time and allocations out of every metric.
type meter struct {
	epoch time.Time
	iter  int
	// spans, when non-nil, receives a span per call (traced runs only).
	spans *[]span
	root  int

	start      time.Time
	setup, run time.Duration
	excluded   time.Duration
	exclAlloc  uint64
	alloc0     uint64
	liveHeap   uint64
}

func newMeter(epoch time.Time, iter int, spans *[]span) *meter {
	m := &meter{epoch: epoch, iter: iter, spans: spans, root: -1}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.start = time.Now()
	if spans != nil {
		m.root = len(*spans)
		*spans = append(*spans, span{Name: "iteration", Start: m.start.Sub(epoch), Parent: -1, Iter: iter})
	}
	return m
}

// call times fn as one call into a layer.
func (m *meter) call(name string, kind callKind, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	d := t1.Sub(t0)
	switch kind {
	case setupCall:
		m.setup += d
	case runCall:
		m.run += d
	}
	if m.spans != nil {
		*m.spans = append(*m.spans, span{Name: name, Start: t0.Sub(m.epoch), End: t1.Sub(m.epoch), Parent: m.root, Iter: m.iter})
	}
}

// exclude runs fn outside the measurement: neither its host time nor
// its allocations count toward any metric, and the CPU profile's
// samples inside it carry a label that leaves them out of the shares.
func (m *meter) exclude(fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	unprofiled(fn)
	m.excluded += time.Since(t0)
	runtime.ReadMemStats(&b)
	m.exclAlloc += b.TotalAlloc - a.TotalAlloc
}

// unprofiled runs fn with the pprof label that leaves its CPU samples
// out of the shares. The collector's background workers carry no
// label, so their share of a forced collection still counts in cpu.gc.
func unprofiled(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(excludedLabel, "unmeasured"), func(context.Context) { fn() })
}

// markLiveHeap records the live heap after a forced collection: the
// memory the built internet holds. The collection is not measured.
func (m *meter) markLiveHeap() {
	m.exclude(func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.liveHeap = ms.HeapAlloc
	})
}

// finish closes the iteration and returns its wall time (host time of
// every measured call and the benchmark's glue between them) and the
// bytes it allocated.
func (m *meter) finish() (wall time.Duration, alloc uint64) {
	end := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if m.spans != nil {
		(*m.spans)[m.root].End = end.Sub(m.epoch)
	}
	return end.Sub(m.start) - m.excluded, ms.TotalAlloc - m.alloc0 - m.exclAlloc
}

// selfTimes sums, per span name and per iteration, each span's
// duration minus the part of it its children cover. Calls never nest
// in this benchmark, so a call's self time is its duration and the
// iteration root's self time is the benchmark's own glue and the
// excluded oracle work.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[int]map[string]time.Duration)
	for i, s := range spans {
		byName := out[s.Iter]
		if byName == nil {
			byName = make(map[string]time.Duration)
			out[s.Iter] = byName
		}
		byName[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
