// Command perfbench is darpanet's benchmark. It drives the simulator's
// layer APIs with the call sequences of E13-T (collapse), E16 (scale)
// and E12/E14 (reconverge), times every call it makes, and checks every
// output: frame conservation, route audits, workload sanity, and a
// digest of every deterministic output that must repeat across
// iterations and match the value pinned in pins.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload collapse --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones: span self times, counters, CPU shares and the tracing
// overhead. The line before it describes the run: machine fingerprint,
// sample counts, tail percentiles and the digest.
//
// The end-to-end metrics are medians over a run's measured iterations:
//
//	wall_s        host seconds per iteration, oracle work excluded
//	setup_s       host seconds in the calls that build and arm internets
//	              (generate, route install, queue policy, RIP enable,
//	              fault and workload arm), before any RunFor
//	frames_per_s  NIC frames transmitted per host second inside RunFor
//	live_heap_mb  live heap after setup, after a forced collection
//	alloc_mb      bytes allocated per iteration, oracle work excluded
//
// The share of iterations that fail the gate or panic is failed over
// attempted in the result line.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// pins is pins.json: per workload, why it was chosen and the layers
// that dominate it (for readers), a pinned and a held-out seed with the
// digests of their input 0, and the prediction map from per-layer to
// end-to-end metrics.
type pins struct {
	Workloads map[string]struct {
		Pinned  seedPin `json:"pinned"`
		HeldOut seedPin `json:"held_out"`
	} `json:"workloads"`
	Predictions []struct {
		Layer    string `json:"layer_metric"`
		Moves    string `json:"moves"`
		Workload string `json:"workload"`
	} `json:"predictions"`
}

type seedPin struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// wantDigest returns the digest pinned for (workload, seed), or "".
func (p *pins) wantDigest(name string, seed int64) string {
	w := p.Workloads[name]
	switch seed {
	case w.Pinned.Seed:
		return w.Pinned.Digest
	case w.HeldOut.Seed:
		return w.HeldOut.Digest
	}
	return ""
}

func main() {
	name := flag.String("workload", "", "workload: collapse, scale or reconverge")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload collapse|scale|reconverge, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{name: *name, seed: *seed, want: p.wantDigest(*name, *seed), epoch: time.Now()}
	budget := time.Duration(*seconds) * time.Second

	var metrics map[string]metric
	info := map[string]any{"workload": *name, "seed": *seed, "fingerprint": fingerprint()}
	if *trace == 0 {
		untraced := b.measure(budget, false)
		metrics = endToEnd(untraced)
		info["tails"] = tails(untraced)
	} else {
		untraced := b.measure(budget/2, false)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			os.Exit(1)
		}
		traced := b.measure(budget-budget/2, true)
		pprof.StopCPUProfile()
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		metrics = perLayer(untraced, traced, b.spans, shares)
		info["tails"] = tails(traced)
		if files, err := b.writeTrace(traceDir, prof.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			info["trace_files"] = files
		}
	}
	info["digest"] = b.digests[0]
	info["pinned_digest"] = b.want
	info["fail_frac"] = ratio(uint64(b.failed), uint64(b.attempted))
	if b.firstErr != nil {
		info["first_failure"] = b.firstErr.Error()
	}
	printJSON(info)
	printJSON(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are marshalled
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inputsPerRun is how many inputs a run cycles through. Input 0 is the
// seed itself; input j > 0 is derived from it. Cycling spreads a run's
// median over several draws of the seeded traffic, topology and faults,
// so one unlucky draw does not set a run's figures.
const inputsPerRun = 24

// inputSeed returns the seed of a run's input j.
func inputSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// bench runs iterations of one workload at one seed and gates them.
type bench struct {
	name  string
	seed  int64
	small bool
	want  string // pinned digest of input 0, "" when the seed is unpinned
	epoch time.Time

	attempted, failed int
	firstErr          error
	digests           map[int]string // per input, the first digest seen
	spans             []span
	warm              bool
}

// sample is one measured iteration.
type sample struct {
	wall, setup, run time.Duration
	frames           uint64
	nets             int
	liveHeap, alloc  uint64
	busy, critical   time.Duration
	sharded          bool
	layer            map[string]float64
	iter             int
}

// measure runs iterations back to back until the budget is spent, at
// least one measured iteration, cycling through the run's inputs from
// input 0. The first iteration of a run is a warm-up on input 0: it is
// gated but not measured, and the first measured iteration repeats it,
// so every run checks determinism at least once. Failed iterations
// count in failed and are not measured.
func (b *bench) measure(budget time.Duration, traced bool) []sample {
	start := time.Now()
	if !b.warm {
		b.warm = true
		b.iterate(0, false)
	}
	var out []sample
	for j := 0; len(out) == 0 || time.Since(start) < budget; j++ {
		if s, ok := b.iterate(j%inputsPerRun, traced); ok {
			out = append(out, s)
		} else if time.Since(start) >= budget {
			break
		}
	}
	return out
}

// iterate runs and gates one iteration on input j.
func (b *bench) iterate(j int, traced bool) (sample, bool) {
	unprofiled(runtime.GC) // start every iteration from the same clean heap
	var spans *[]span
	if traced {
		spans = &b.spans
	}
	s, digest, err := runIteration(b.name, inputSeed(b.seed, j), b.small, b.epoch, b.attempted, spans)
	b.attempted++
	if err == nil {
		err = b.gate(j, digest)
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d input %d failed: %v\n", b.name, b.seed, j, err)
		return s, false
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d input %d: wall %.3fs setup %.3fs run %.3fs\n",
		b.name, b.seed, j, s.wall.Seconds(), s.setup.Seconds(), s.run.Seconds())
	return s, true
}

// gate checks an iteration's digest against the first digest of the
// same input in this run and, for input 0 at a pinned seed, against
// the pinned value.
func (b *bench) gate(j int, digest string) error {
	if b.digests == nil {
		b.digests = make(map[int]string)
	}
	first, seen := b.digests[j]
	if !seen {
		b.digests[j] = digest
	} else if digest != first {
		return fmt.Errorf("input %d: digest %.12s differs from this run's first %.12s: the simulation is not deterministic", j, digest, first)
	}
	if j == 0 && b.want != "" && digest != b.want {
		return fmt.Errorf("digest %.12s differs from the pinned %.12s", digest, b.want)
	}
	return nil
}

// runIteration runs one iteration of the named workload. A panic in
// the simulator is reported as the iteration's error.
func runIteration(name string, seed int64, small bool, epoch time.Time, iter int, spans *[]span) (s sample, digest string, err error) {
	it := &iteration{seed: seed, small: small, m: newMeter(epoch, iter, spans), b: newBooks()}
	s.iter = iter
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	err = workloads[name](it)
	s.wall, s.alloc = it.m.finish()
	s.setup, s.run, s.liveHeap = it.m.setup, it.m.run, it.m.liveHeap
	s.frames = it.b.counts["nic/tx_frames"]
	s.nets = it.nets
	s.layer = it.b.layerCounts()
	if it.group != nil {
		s.sharded = true
		s.busy, s.critical = it.group.TotalBusy(), it.group.CriticalPath()
	}
	return s, it.b.sum(), err
}

// endToEnd reduces untraced samples to the end-to-end metrics: the
// median of each per-iteration value.
func endToEnd(ss []sample) map[string]metric {
	col := func(f func(sample) float64) float64 { return median(column(ss, f)) }
	return map[string]metric{
		"wall_s":       {col(wallSeconds), "s"},
		"setup_s":      {col(setupSeconds), "s"},
		"frames_per_s": {col(framesPerSecond), "1/s"},
		"live_heap_mb": {col(func(s sample) float64 { return float64(s.liveHeap) / 1e6 }), "MB"},
		"alloc_mb":     {col(func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB"},
	}
}

// column returns f of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		xs = append(xs, f(s))
	}
	return xs
}

func wallSeconds(s sample) float64  { return s.wall.Seconds() }
func setupSeconds(s sample) float64 { return s.setup.Seconds() }

func framesPerSecond(s sample) float64 {
	if s.run <= 0 {
		return 0
	}
	return float64(s.frames) / s.run.Seconds()
}

// tails reports, per timing metric, the sample count, the median and
// the highest percentile with at least ten samples beyond it (none
// below twenty samples).
func tails(ss []sample) map[string]any {
	out := map[string]any{}
	for _, t := range []struct {
		name string
		f    func(sample) float64
	}{
		{"wall_s", wallSeconds},
		{"setup_s", setupSeconds},
		{"frames_per_s", framesPerSecond},
	} {
		xs := column(ss, t.f)
		row := map[string]any{"n": len(xs), "p50": median(xs)}
		if n := len(xs); n >= 20 {
			q := 1 - 10/float64(n)
			row[fmt.Sprintf("p%.0f", 100*q)] = quantile(xs, q)
		}
		out[t.name] = row
	}
	return out
}

// spanNames are the calls the benchmark times; each is reported as
// <name>_s, its median self time per iteration.
var spanNames = []string{
	"topo.generate", "topo.partition", "topo.sharded_build",
	"core.static_routes", "stack.queue_policy", "core.enable_rip", "core.converged",
	"survive.analyze", "fault.arm", "workload.arm", "udp.arm",
	"sim.run", "workload.summarize",
}

// perLayer derives the per-layer metrics from the traced samples, their
// spans and the CPU profile of the traced iterations.
func perLayer(untraced, traced []sample, spans []span, shares map[string]float64) map[string]metric {
	self := selfTimes(spans)
	out := map[string]metric{}
	med := func(f func(sample) float64) float64 { return median(column(traced, f)) }
	for _, name := range spanNames {
		out[name+"_s"] = metric{med(func(s sample) float64 { return self[s.iter][name].Seconds() }), "s"}
	}
	out["sim.shard_busy_s"] = metric{med(func(s sample) float64 { return s.busy.Seconds() }), "s"}
	out["sim.critical_path_s"] = metric{med(func(s sample) float64 { return s.critical.Seconds() }), "s"}
	out["sim.barrier_s"] = metric{med(func(s sample) float64 {
		if !s.sharded {
			return 0
		}
		return (self[s.iter]["sim.run"] - s.busy).Seconds()
	}), "s"}
	out["sim.modeled_speedup"] = metric{med(func(s sample) float64 {
		if s.critical <= 0 {
			return 0
		}
		return float64(s.busy) / float64(s.critical)
	}), "x"}
	out["sim.ns_per_frame"] = metric{med(func(s sample) float64 {
		if s.frames == 0 {
			return 0
		}
		return float64(s.run.Nanoseconds()) / float64(s.frames)
	}), "ns"}
	out["topo.setup_us_per_net"] = metric{med(func(s sample) float64 {
		if s.nets == 0 {
			return 0
		}
		var topo time.Duration
		for _, n := range []string{"topo.generate", "topo.partition", "topo.sharded_build"} {
			topo += self[s.iter][n]
		}
		return topo.Seconds() * 1e6 / float64(s.nets)
	}), "us"}
	for _, name := range layerCountNames {
		unit := "count"
		if strings.HasSuffix(name, "_ratio") {
			unit = "ratio"
		}
		out[name] = metric{med(func(s sample) float64 { return s.layer[name] }), unit}
	}
	for _, name := range cpuMetricNames() {
		unit := "share"
		if name == "cpu.samples" {
			unit = "count"
		}
		out[name] = metric{shares[name], unit}
	}
	out["trace.overhead_s"] = metric{med(wallSeconds) - median(column(untraced, wallSeconds)), "s"}
	return out
}

// layerCountNames are the counter-derived per-layer metrics.
var layerCountNames = func() []string {
	var names []string
	for n := range newBooks().layerCounts() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}()

// traceDir is where a traced run leaves its spans and CPU profile,
// beside the benchmark's build.
const traceDir = ".bench_build/perfbench-trace"

// writeTrace writes the traced run's spans (JSON) and CPU profile
// (pprof) under dir, returning the file names.
func (b *bench) writeTrace(dir string, prof []byte) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	doc, err := json.Marshal(map[string]any{"workload": b.name, "seed": b.seed, "spans": b.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".spans.json", doc, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return nil, err
	}
	return []string{base + ".spans.json", base + ".cpu.pprof"}, nil
}

// fingerprint identifies the machine and the code a result came from,
// so numbers from different machines or commits are never compared.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["commit"] = s.Value
			case "vcs.modified":
				fp["commit_modified"] = s.Value
			}
		}
	}
	return fp
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every Go file of the simulator under
// root, which names the code measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	files := []string{"go.mod"}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(filepath.Join(root, f))
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\n", f)
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
