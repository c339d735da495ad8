// Command hopsbench regenerates the tables and figures of "Distributed
// Hierarchical File Systems strike back in the Cloud" (ICDCS 2020) against
// this repository's HopsFS-CL reproduction.
//
// Usage:
//
//	hopsbench [flags] <experiment>...
//	hopsbench list
//	hopsbench all
//
// Experiments: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 pathdepth writefan failures chaos autoscale ablations phases
// hotspot shardsweep. "chaos" runs the seeded random fault-campaign sweep
// (deterministic per seed) with cross-layer invariant auditing; "failures"
// runs the §V-F scripted drills on the same engine; "pathdepth" measures
// stat latency vs path depth with optimistic batched resolution against the
// serial per-component walk; "writefan" measures multi-row
// write-transaction latency and wire footprint against rows per
// transaction, with the batched write path and node-group-coalesced commit
// trains (ndb.batch_write.* and ndb.commit.trains /
// ndb.commit.rows_per_train counters) against the serial one-chain-per-row
// protocol, including a where-the-time-went critical-path table per point;
// "autoscale" drives a compressed diurnal week against the elastic metadata
// tier (online commission/drain under the autoscale controller, audited at
// every transition) and against static-min and static-peak provisioning,
// checking the acceptance inequalities inline; "hotspot" drives a planted
// skewed workload with the namespace heat sketches and tail-based exemplar
// capture enabled, checks that the planted subtrees rank first at every
// depth and that every p99-breaching op class pinned a breach exemplar, and
// renders the slowest exemplar through the critical-path profiler;
// "shardsweep" holds the offered load fixed and sweeps the number of
// independent NDB clusters the namespace is hash-sharded across
// (Options.Shards), checking the 1.8x 4-vs-1-shard scaling floor inline and
// reporting the cross-shard rename path (ordered two-cluster commits with
// durable intents) separately from the shard-local fast path — the run
// recorded in BENCH_10.json.
//
// When any measured window evicted spans from the profiling ring, a
// per-cell "spans dropped from the profiling sink" warning is printed to
// stderr (the count is also in the JSON report as sink_dropped): profiler
// attribution and exemplars then cover only a suffix of the run.
//
// hopsbench measures the simulated system. The simulation engine's own
// cost (per-primitive wall ns and allocations, grid-point wall ns per
// virtual ms and allocations per virtual op) is measured by the Go
// benchmarks (go test -bench . ./internal/sim ./internal/simnet
// ./internal/bench) and by the perfbench module's sim.* and simnet.send_*
// per-layer metrics.
//
// Flags:
//
//	-full     run the paper's complete server-count grid (slower)
//	-seed N   simulation seed (default 1)
//	-clients N  closed-loop clients per metadata server (default 64)
//	-json FILE  write every measured grid cell (setup x server count:
//	            throughput, latency percentiles, CPU, cross-zone rate) plus
//	            per-point SLO summaries and the autoscale mode comparison as
//	            a deterministic JSON report — the machine-readable companion
//	            to the text tables (see BENCH_7.json for the recorded run)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hopsfscl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hopsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hopsbench", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the paper's complete server-count grid")
	seed := fs.Int64("seed", 1, "simulation seed")
	clients := fs.Int("clients", 0, "closed-loop clients per metadata server (0 = default)")
	jsonOut := fs.String("json", "", "write measured grid cells as a machine-readable JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		usage()
		return fmt.Errorf("no experiment given")
	}
	if len(ids) == 1 && ids[0] == "list" {
		usage()
		return nil
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	}
	opts := bench.ExpOptions{Full: *full, Seed: *seed, ClientsPerServer: *clients, SLO: *jsonOut != ""}
	for _, id := range ids {
		exp, ok := bench.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: hopsbench list)", id)
		}
		fmt.Printf("=== %s — %s ===\n", exp.ID, exp.Title)
		t0 := time.Now()
		out, err := exp.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %s)\n\n", exp.ID, time.Since(t0).Round(time.Millisecond))
	}
	for _, w := range bench.SinkDropWarnings() {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	if *jsonOut != "" {
		cmd := "hopsbench " + strings.Join(args, " ")
		if err := bench.WriteGridJSON(*jsonOut, cmd, ids); err != nil {
			return fmt.Errorf("write %s: %w", *jsonOut, err)
		}
		fmt.Printf("wrote grid report to %s\n", *jsonOut)
	}
	return nil
}

func usage() {
	fmt.Println("hopsbench — regenerate the paper's tables and figures")
	fmt.Println("\nexperiments:")
	for _, e := range bench.Experiments {
		fmt.Printf("  %-9s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nusage: hopsbench [-full] [-seed N] [-clients N] [-json FILE] <experiment>... | all | list")
	fmt.Println("engine cost: go test -bench . ./internal/sim ./internal/simnet ./internal/bench, or bash perfbench/run.sh")
}
