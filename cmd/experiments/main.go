// Command experiments runs the darpanet reproduction experiments (E1–E16,
// one per architectural claim of Clark's 1988 design-philosophy paper,
// plus the runs on generated internets that push those claims to scale,
// failure, congestion, naming and sharding) and prints their tables.
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded results.
//
// With -runs N (N > 1) each experiment becomes a Monte Carlo campaign:
// N replicas run on seeds base..base+N-1 — in parallel across -parallel
// workers — and every metric is reported as mean ± 95% CI. Parallelism
// never changes results, only wall time. -json exports the aggregated
// campaign as machine-readable JSON.
//
// Experiments that can be reshaped declare their own parameters
// (internal/exp), and each becomes a flag; setting one appends it to
// the experiment's title:
//
//   - -faults overrides E11's failure schedule: a preset name (crash,
//     flap, mixed, partition), "random" (each replica seed draws its own
//     scenario), or the path of a schedule file in the internal/fault
//     text format.
//   - -topo overrides E12's generated internet with an internal/topo
//     spec ("shape:key=val,..."), e.g. -topo waxman:gw=64 or
//     -topo transitstub:gw=40,stubs=9.
//   - -workload overrides E13's traffic mix with an internal/workload
//     spec ("key=val,..."), e.g. -workload "rate=20,vj=1" to rerun the
//     collapse sweep with Van Jacobson congestion control. Keys: bulk,
//     inter, rr, voice, rate, alpha, min, max, think_ms, vj, naive, ecn,
//     onoff, on_ms, off_ms, cc.
//   - -qdisc selects the gateway queue policy: for E13 a single
//     internal/phys policy spec ("droptail", "red:min=64,max=256,maxp=0.1",
//     "ecn"), for E13-T a "+"-separated list restricting the tournament
//     grid. -cc does the same for the host congestion response (naive,
//     tahoe, reno, newreno).
//   - -ttopo selects the internet the E13-T tournament collapses on
//     (transitstub or waxman); the topology id is carried in every
//     tournament metric path and leaderboard entry.
//   - -stopo overrides E14's generated internet with an internal/topo
//     spec and -sfracs its loss sweep as comma-separated percentages,
//     e.g. -stopo transitstub:gw=6,stubs=3 -sfracs 5,10,25.
//
// -shards sets the worker count of the sharded experiments (E15, E16):
// the internet is always partitioned into the same region shards, and N
// workers advance them in lock-step epochs. Results are byte-identical
// at every -shards value; only wall-clock changes.
//
// -summary DIR writes the distilled summary of every campaign in the
// run that has one (internal/harness): E13-T's ranked leaderboard as
// DIR/tournament.json (darpanet/tournament/v2), E14's survivability
// frontier as DIR/survive.json (darpanet/survive/v1), and E15's naming
// summary as DIR/names.json (darpanet/names/v1).
//
// Usage:
//
//	experiments [-seed N] [-only E1,E5] [-runs N] [-parallel N] [-json file] [-summary dir] [-shards N] [-metrics] [-faults sched] [-topo spec] [-workload spec] [-qdisc spec] [-cc list] [-ttopo id] [-stopo spec] [-sfracs pcts]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
	"darpanet/internal/metrics"
)

func main() {
	seed := flag.Int64("seed", 1988, "base simulation seed (replica i runs on seed+i)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	runs := flag.Int("runs", 1, "replicas per experiment (a Monte Carlo campaign when > 1)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "campaign worker-pool size (affects wall time only, never results)")
	jsonOut := flag.String("json", "", "write aggregated campaign results to this file as JSON")
	summaryDir := flag.String("summary", "", "write each campaign's distilled summary (tournament.json, survive.json, names.json) into this directory")
	showMetrics := flag.Bool("metrics", false, "after each single-run table, dump the per-layer counter registry as a tree")
	shards := flag.Int("shards", 1, "worker count of the sharded experiments (results are byte-identical at any value; only wall time changes)")
	params := map[string]*string{}
	for _, e := range exp.All {
		for _, p := range e.Params {
			if params[p.Name] == nil {
				params[p.Name] = flag.String(p.Name, "", p.Usage)
			}
		}
	}
	flag.Parse()

	vals := make(map[string]string, len(params))
	for name, v := range params {
		vals[name] = *v
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	// Bind every experiment, selected or not, so a malformed value is
	// an error whatever -only says.
	var selected []exp.Experiment
	for _, e := range exp.All {
		e, err := e.With(vals, *shards)
		if err != nil {
			fail(err)
		}
		if len(want) == 0 || want[e.ID] {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fail(fmt.Errorf("no experiments matched -only"))
	}

	fmt.Printf("darpanet experiment suite — base seed %d, %d run(s) per experiment\n", *seed, *runs)
	fmt.Printf("reproducing: Clark, \"The Design Philosophy of the DARPA Internet Protocols\", SIGCOMM 1988\n\n")

	var reports []*harness.Report
	for _, e := range selected {
		start := time.Now()
		c := harness.Campaign{
			Runs:     *runs,
			Parallel: *parallel,
			BaseSeed: *seed,
			OnReplicaDone: func(done, total int) {
				if total > 1 {
					fmt.Fprintf(os.Stderr, "\r%s: %d/%d replicas", e.ID, done, total)
					if done == total {
						fmt.Fprintln(os.Stderr)
					}
				}
			},
		}
		rep := c.RunExperiment(e)
		reports = append(reports, rep)

		if *runs <= 1 {
			// Single run: the classic table report.
			if rep.First != nil {
				fmt.Println(rep.First.String())
				if *showMetrics {
					fmt.Printf("counters (schema %s):\n%s\n", metrics.Schema, rep.First.Counters.Tree())
				}
			}
		} else {
			// Campaign: aggregate every metric as mean ± 95% CI.
			fmt.Printf("%s — %s\n", rep.ID, rep.Title)
			fmt.Printf("campaign: %d runs, seeds %d..%d, %d workers\n\n",
				rep.Runs, rep.BaseSeed, rep.BaseSeed+int64(rep.Runs)-1, *parallel)
			tbl := rep.Table()
			fmt.Println(tbl.String())
		}
		for _, f := range rep.Failures {
			fmt.Printf("FAILED replica seed %d: %s\n", f.Seed, f.Error)
		}
		fmt.Printf("(%s wall time: %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		writeFile(*jsonOut, func(w io.Writer) error { return harness.WriteJSON(w, *seed, *runs, reports) })
		fmt.Printf("wrote %s (%d experiment campaign(s), schema darpanet/campaign/v1)\n", *jsonOut, len(reports))
	}

	if *summaryDir != "" {
		if err := os.MkdirAll(*summaryDir, 0o755); err != nil {
			fail(err)
		}
		wrote := 0
		for _, rep := range reports {
			d, ok := harness.Distillers[rep.ID]
			if !ok {
				continue
			}
			s := d.Build(rep)
			lines := s.Lines()
			if len(lines) == 0 {
				fail(fmt.Errorf("-summary: the %s campaign distilled to no rows", rep.ID))
			}
			path := filepath.Join(*summaryDir, d.File)
			writeFile(path, func(w io.Writer) error { return harness.WriteSummaryJSON(w, s) })
			fmt.Printf("wrote %s (%d rows, schema %s)\n", path, len(lines), s.Header().Schema)
			for _, l := range lines {
				fmt.Println("  " + l)
			}
			wrote++
		}
		if wrote == 0 {
			fail(fmt.Errorf("-summary: no experiment in this run has a summary"))
		}
	}
}

// writeFile creates path and fills it with write, exiting on any error.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

// fail reports err and exits with status 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
