package phys

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestQdiscRingMatchesSliceQueue drives the FIFO, priority and policy
// disciplines through random enqueue/dequeue runs that alternately fill
// the queues to their limit and drain them, so every ring grows several
// times and wraps many more. Each result is compared with a reference
// slice queue per band, and after every operation each ring slot outside
// the queued range must be empty: a vacated slot may not keep a
// reference to a payload that has left the queue.
func TestQdiscRingMatchesSliceQueue(t *testing.T) {
	const limit, bands = 37, 3
	classify := func(p []byte) int { return int(p[3]) % bands }
	fifo := NewFIFO(limit).(*fifoQdisc)
	prio := NewPriority(bands, limit, classify)
	policy := NewPolicyQdisc(limit, PolicySpec{Kind: PolicyDropTail}, nil, nil)
	cases := []struct {
		name     string
		q        Qdisc
		classify func([]byte) int
		rings    []*frameRing
	}{
		{"fifo", fifo, nil, []*frameRing{&fifo.frames}},
		{"prio", prio, classify, []*frameRing{&prio.bands[0], &prio.bands[1], &prio.bands[2]}},
		{"policy", policy, nil, []*frameRing{&policy.frames}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			ref := make([][]uint32, len(tc.rings))
			var id uint32
			pops := 0
			for step := 0; step < 40000; step++ {
				fill := step/600%2 == 0 // alternate filling and draining phases
				if push := rng.Intn(100) < 20 || (fill && rng.Intn(100) < 75); push {
					id++
					p := make([]byte, 4)
					binary.BigEndian.PutUint32(p, id)
					band := 0
					if tc.classify != nil {
						band = tc.classify(p)
					}
					want := len(ref[band]) < limit
					if got := tc.q.Enqueue(queuedFrame{f: Frame{Payload: p}}); got != want {
						t.Fatalf("step %d: Enqueue(%d) = %v, want %v", step, id, got, want)
					}
					if want {
						ref[band] = append(ref[band], id)
					}
				} else {
					f, ok := tc.q.Dequeue()
					band := len(ref) - 1
					for band >= 0 && len(ref[band]) == 0 {
						band--
					}
					if ok != (band >= 0) {
						t.Fatalf("step %d: Dequeue ok = %v, reference has band %d", step, ok, band)
					}
					if ok {
						if got := binary.BigEndian.Uint32(f.f.Payload); got != ref[band][0] {
							t.Fatalf("step %d: Dequeue = %d, want %d", step, got, ref[band][0])
						}
						ref[band] = ref[band][1:]
						pops++
					}
				}
				total := 0
				for b, r := range tc.rings {
					total += len(ref[b])
					checkVacated(t, step, r)
				}
				if tc.q.Len() != total {
					t.Fatalf("step %d: Len = %d, want %d", step, tc.q.Len(), total)
				}
			}
			for b, r := range tc.rings {
				if len(r.buf) < limit {
					t.Errorf("band %d ring never grew to the limit: %d slots", b, len(r.buf))
				}
			}
			if pops < 20*limit*len(tc.rings) {
				t.Errorf("only %d pops: the rings did not wrap often", pops)
			}
		})
	}
}

// checkVacated fails unless every ring slot outside the queued range is
// the zero frame.
func checkVacated(t *testing.T, step int, r *frameRing) {
	t.Helper()
	for i := range r.buf {
		if (i-r.head+len(r.buf))%len(r.buf) < r.n {
			continue
		}
		if s := r.buf[i]; s.from != nil || s.f.Payload != nil || s.f.pool != nil || s.f.Src != 0 || s.f.Dst != 0 {
			t.Fatalf("step %d: vacated slot %d still holds a frame (payload %v)", step, i, r.buf[i].f.Payload)
		}
	}
}

// BenchmarkQdiscStanding measures one enqueue and one dequeue against a
// standing queue of 512 frames, the depth a congested collapse-workload
// gateway holds: a drop-tail policy queue one frame short of its limit.
func BenchmarkQdiscStanding(b *testing.B) {
	const depth = 512
	q := NewPolicyQdisc(depth, PolicySpec{Kind: PolicyDropTail}, nil, nil)
	payload := make([]byte, 576)
	for i := 0; i < depth-1; i++ {
		q.Enqueue(queuedFrame{f: Frame{Payload: payload}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.Enqueue(queuedFrame{f: Frame{Payload: payload}}) {
			b.Fatal("standing queue overflowed")
		}
		if _, ok := q.Dequeue(); !ok {
			b.Fatal("standing queue empty")
		}
	}
}
