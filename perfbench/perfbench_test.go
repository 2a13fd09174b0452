package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"darpanet/internal/metrics"
	"darpanet/internal/topo"
)

// runSmall runs one reduced-size iteration of a workload.
func runSmall(t *testing.T, name string, seed int64) (sample, string) {
	t.Helper()
	s, digest, err := runIteration(name, seed, true, time.Now(), 0, nil)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return s, digest
}

// Every workload passes its gate at reduced size, and the same seed
// gives the same digest twice while another seed gives another.
func TestWorkloadsGateAndRepeat(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			s, d1 := runSmall(t, name, 3)
			_, d2 := runSmall(t, name, 3)
			if d1 != d2 {
				t.Errorf("seed 3 digests differ: %s vs %s", d1, d2)
			}
			if s.frames == 0 || s.run <= 0 || s.setup <= 0 || s.wall < s.setup+s.run {
				t.Errorf("implausible timing: %+v", s)
			}
			if _, d3 := runSmall(t, name, 4); d3 == d1 {
				t.Errorf("seeds 3 and 4 give the same digest %s", d1)
			}
		})
	}
}

// A wrong pinned digest fails every iteration instead of passing.
func TestWrongPinnedDigestCountsAsFailure(t *testing.T) {
	b := &bench{name: "reconverge", seed: 3, small: true, want: strings.Repeat("0", 64), epoch: time.Now()}
	ss := b.measure(time.Millisecond, false)
	if b.attempted < 2 || b.failed != b.attempted || len(ss) != 0 {
		t.Fatalf("attempted %d, failed %d, measured %d; want every iteration failed", b.attempted, b.failed, len(ss))
	}
	if !strings.Contains(b.firstErr.Error(), "pinned") {
		t.Errorf("failure %q does not name the pinned digest", b.firstErr)
	}
}

// An unbalanced frame ledger fails the iteration instead of passing.
func TestUnbalancedLedgerCountsAsFailure(t *testing.T) {
	workloads["leaky"] = func(it *iteration) error {
		nw, _ := topo.Generate(topo.Spec{Shape: topo.Line, Gateways: 3, Hosts: 1}, it.seed)
		nw.InstallStaticRoutes()
		it.m.call("sim.run", runCall, func() { nw.RunFor(time.Second) })
		// One frame originated that no NIC or medium accounts for.
		ghost := uint64(1)
		metrics.For(nw.Kernel()).Counter("ghost", "nic", "tx_frames", &ghost)
		return it.check(func() error { return it.b.close("leaky", nw.Kernel()) })
	}
	defer delete(workloads, "leaky")
	b := &bench{name: "leaky", seed: 1, small: true, epoch: time.Now()}
	b.measure(time.Millisecond, false)
	if b.failed == 0 || b.failed != b.attempted {
		t.Fatalf("attempted %d, failed %d; want every iteration failed", b.attempted, b.failed)
	}
	if !strings.Contains(b.firstErr.Error(), "ledger") {
		t.Errorf("failure %q does not name the ledger", b.firstErr)
	}
}

// The metric names the program prints are exactly those BENCHMARK.json
// declares, and pins.json covers the same workloads with predictions
// that name real metrics.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		seen := map[string]bool{}
		for _, d := range declared {
			seen[d.Name] = true
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("%s metric %s declared but not reported", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s metric %s: unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
		for name := range got {
			if !seen[name] {
				t.Errorf("%s metric %s reported but not declared", kind, name)
			}
		}
	}
	s, _ := runSmall(t, "collapse", 1)
	check("end_to_end", bj.EndToEnd, endToEnd([]sample{s}))
	check("per_layer", bj.PerLayer, perLayer([]sample{s}, []sample{s}, nil, map[string]float64{}))

	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	var names, pinned []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		pinned = append(pinned, name)
	}
	sort.Strings(names)
	sort.Strings(pinned)
	if strings.Join(names, ",") != strings.Join(pinned, ",") || len(p.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v, pins.json %d", names, pinned, len(p.Workloads))
	}
	metricNames := map[string]bool{}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		metricNames[m.Name] = true
	}
	for _, pred := range p.Predictions {
		if !metricNames[pred.Layer] || !metricNames[pred.Moves] || workloads[pred.Workload] == nil {
			t.Errorf("prediction %+v names an unknown metric or workload", pred)
		}
	}
}

// A CPU profile of a real iteration folds into shares of its samples.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	runSmall(t, "collapse", 2)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["cpu.samples"] == 0 {
		t.Skip("no samples taken")
	}
	total := 0.0
	for _, p := range programPackages {
		total += shares["cpu."+p]
	}
	if total <= 0 || total > 1+1e-9 {
		t.Errorf("program packages hold %.3f of the samples, want (0,1]", total)
	}
}

// Samples taken inside meter.exclude are left out of the shares.
func TestCPUSharesSkipUnmeasured(t *testing.T) {
	spin := func() {
		x := uint64(1)
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1
			}
		}
		spinSink = x
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	newMeter(time.Now(), 0, nil).exclude(spin)
	pprof.StopCPUProfile()
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	labelled := 0
	for _, s := range prof.samples {
		if s.excluded {
			labelled++
		}
	}
	if labelled == 0 {
		t.Skip("no labelled samples taken")
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := shares["cpu.samples"]; n != 0 {
		t.Errorf("%v samples counted from excluded work, want 0", n)
	}
}

var spinSink uint64

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 10, Parent: -1, Iter: 0},
		{Name: "sim.run", Start: 1, End: 4, Parent: 0, Iter: 0},
		{Name: "sim.run", Start: 5, End: 9, Parent: 0, Iter: 0},
		{Name: "iteration", Start: 10, End: 12, Parent: -1, Iter: 1},
	}
	got := selfTimes(spans)
	if got[0]["sim.run"] != 7 || got[0]["iteration"] != 3 || got[1]["iteration"] != 2 {
		t.Errorf("self times %v", got)
	}
}
