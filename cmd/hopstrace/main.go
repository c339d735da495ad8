// Command hopstrace records, replays, and profiles metadata operation
// traces — the methodology behind the paper's use of Spotify's operational
// trace, extended with critical-path profiling.
//
// Usage:
//
//	hopstrace gen [-ops N] [-seed S] [-out file]
//	    Generate a Spotify-mix trace over the evaluation namespace and
//	    write it (one operation per line) to the file or stdout.
//
//	hopstrace replay [-setup name] [-seed S] [-in file] [-trace] [-deadline D]
//	    Replay a trace file against a deployment and report virtual
//	    throughput, latency, and cross-AZ traffic. With -trace, capture
//	    detailed spans and print the 2PC phase breakdown plus the slowest
//	    operations as flame-style span trees. Multi-row metadata writes go
//	    through the batched write path and commit as node-group-coalesced
//	    trains; the ndb.batch_write.* and ndb.commit.trains /
//	    ndb.commit.rows_per_train registry counters report how rows packed.
//
//	hopstrace profile [-setup name] [-seed S] [-ops N] [-clients N] [-format text|folded|chrome] [-out file]
//	    Generate and replay a trace with concurrent clients and detailed
//	    spans, then report where the time went: a per-op critical-path
//	    attribution table (lock wait / 2PC phases / hop classes / compute)
//	    plus the lock-contention ledger (text), folded flamegraph stacks
//	    (folded), or Chrome Trace Event JSON for chrome://tracing and
//	    Perfetto (chrome).
//
//	hopstrace timeline [-setup name] [-seed S] [-ops N] [-interval D] [-out file]
//	    Same replay, sampled by the flight recorder: a CSV time series of
//	    the selected metrics (per-AZ link traffic, lock waits, op rates)
//	    over virtual time.
//
//	hopstrace hotspots [-setup name] [-seed S] [-ops N] [-clients N] [-shards N] [-format text|csv] [-exemplars] [-out file]
//	    Same replay with the namespace heat sketches attached: decayed
//	    Space-Saving top-k rankings of the hottest subtrees (per depth),
//	    inodes, NDB tables, partitions, and op types, as a rendered report
//	    (text) or machine-readable rows (csv). With -shards > 1 the
//	    namespace is hash-sharded across that many NDB clusters and the
//	    report gains the per-shard routing-balance family. With -exemplars,
//	    also pin
//	    tail exemplars — full span trees of operations that breached their
//	    p99 objective, completed while a burn alert fired, or were the
//	    slowest of their window — and render them through the critical-path
//	    profiler.
//
//	hopstrace autoscale [-seed S] [-profile file] [-out file]
//	    Run the elastic metadata tier under a shaped diurnal load: paced
//	    clients follow the load profile (see internal/loadshape; -profile
//	    reads a declarative profile file, default loadshape.DefaultProfile
//	    over a compressed week) while the autoscale controller commissions
//	    and drains namenodes against the live SLO gauges. Prints the
//	    scale-event log and run summary; -out writes the flight-recorder
//	    timeline (offered load, serving servers, rolling p99) as CSV.
//
//	hopstrace slo [-setup name] [-seed S] [-spec file] [-schedule file] [-faults N] [-len D] [-out file]
//	    Run a seeded chaos campaign with the live SLO engine attached and
//	    render the alert/health timeline: burn-rate alerts
//	    (fast-burn/slow-burn pairs over the spec's objectives), component
//	    and cluster health transitions, per-fault time-to-detect alongside
//	    MTTR, and the closing rolling latency summaries. The default
//	    schedule injects the three detection classes (datanode death, zone
//	    partition, degraded link); -schedule replays an explicit schedule
//	    file and -faults N generates a random campaign instead. -spec reads
//	    a declarative SLO spec (see internal/slo.ParseSpec); the default is
//	    slo.DefaultSpec.
//
// The trace format is plain text: "<op> <path> [<dst>]", e.g.
//
//	mkdir /proj001/dsNew
//	createFile /proj001/ds00/part-00042
//	rename /a/b /c/d
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hopsfscl/internal/autoscale"
	"hopsfscl/internal/bench"
	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
	"hopsfscl/internal/loadshape"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hopstrace:", err)
		os.Exit(1)
	}
}

// subcommands lists every hopstrace subcommand with a one-line
// description; usage and nearest-match suggestions derive from it so the
// help text cannot drift from the dispatch table below.
var subcommands = []struct{ name, brief string }{
	{"gen", "generate a Spotify-mix trace over the evaluation namespace"},
	{"replay", "replay a trace file and report throughput, latency, and cross-AZ traffic"},
	{"profile", "replay with detailed spans and report critical-path attribution"},
	{"timeline", "replay under the flight recorder and emit a metrics CSV time series"},
	{"hotspots", "replay with namespace heat sketches and report the hottest subtrees, tables, and partitions"},
	{"autoscale", "drive the elastic metadata tier through a shaped diurnal load"},
	{"slo", "run a seeded chaos campaign under the live SLO engine and render the alert timeline"},
}

func usageText() string {
	var b strings.Builder
	b.WriteString("usage: hopstrace <subcommand> [flags]\n\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(&b, "  %-9s %s\n", sc.name, sc.brief)
	}
	b.WriteString("\nrun `hopstrace <subcommand> -h` for the subcommand's flags")
	return b.String()
}

// nearestSubcommand returns the subcommand closest to name by edit
// distance, or "" when nothing is plausibly close.
func nearestSubcommand(name string) string {
	best, bestDist := "", 3 // suggest only within edit distance 2
	for _, sc := range subcommands {
		if d := editDistance(name, sc.name); d < bestDist {
			best, bestDist = sc.name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usageText())
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:], stdout)
	case "replay":
		return runReplay(args[1:], stdout)
	case "profile":
		return runProfile(args[1:], stdout)
	case "timeline":
		return runTimeline(args[1:], stdout)
	case "hotspots":
		return runHotspots(args[1:], stdout)
	case "autoscale":
		return runAutoscale(args[1:], stdout)
	case "slo":
		return runSLO(args[1:], stdout)
	default:
		if sug := nearestSubcommand(args[0]); sug != "" {
			return fmt.Errorf("unknown subcommand %q (did you mean %q?)\n%s", args[0], sug, usageText())
		}
		return fmt.Errorf("unknown subcommand %q\n%s", args[0], usageText())
	}
}

// genTrace generates n Spotify-mix operations with the given seed over the
// evaluation namespace — matching the namespace a deployment built with the
// same seed is seeded with, so generated paths resolve on replay.
func genTrace(n int, seed int64) []workload.TraceOp {
	ns := workload.BuildNamespace(workload.DefaultNamespace(), core.NamespaceSeed(seed))
	rec := workload.NewRecorder(nopFS{})
	gen := workload.NewGenerator(ns, workload.SpotifyMix, seed)
	env := sim.New(seed)
	defer env.Close()
	env.Spawn("gen", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			_, _ = gen.Step(p, rec)
		}
	})
	env.Run()
	return rec.Trace()
}

func runGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	ops := fs.Int("ops", 10000, "operations to generate")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Drive the Spotify-mix generator against a recorder over a no-op FS:
	// the recorder captures exactly the operations a benchmark run issues.
	trace := genTrace(*ops, *seed)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteTrace(w, trace); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d operations to %s\n", len(trace), *out)
	}
	return nil
}

func runReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	in := fs.String("in", "", "trace file (default stdin)")
	servers := fs.Int("servers", 6, "metadata servers")
	deadline := fs.Duration("deadline", 1000*time.Second, "virtual-time budget for the replay")
	withTrace := fs.Bool("trace", false, "capture detailed spans; print phase breakdown and slowest operations")
	slowest := fs.Int("slowest", 10, "slowest spans to print with -trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	trace, err := workload.ReadTrace(r)
	if err != nil {
		return err
	}
	// One replay client: the trace runs sequentially.
	d, err := buildReplayDeployment(*setupName, *seed, *servers, 1, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	sink := d.Tracer.Sink()
	if *withTrace {
		sink = d.EnableTracing(len(trace))
	}
	elapsed, errs, err := replayConcurrent(d, trace, 1, *deadline)
	if err != nil {
		return err
	}
	rate := float64(len(trace)) / elapsed.Seconds()
	fmt.Fprintf(stdout, "replayed %d operations on %s in %v (virtual)\n", len(trace), d.Setup.Name, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "sequential throughput: %s ops/s   errors: %d\n", metrics.FormatOps(rate), errs)
	fmt.Fprintf(stdout, "cross-AZ traffic: %.2f MB\n", float64(d.Net.CrossZoneBytes())/1e6)
	// Mirror hopsbench: note the bench package is the place for load tests.
	fmt.Fprintln(stdout, "(replay is sequential; use hopsbench for closed-loop load)")

	if *withTrace {
		warnTruncated(stdout, sink)
		samples := d.Registry.Snapshot()
		fmt.Fprintf(stdout, "\ntransaction phase latency:\n%s", bench.RenderPhaseTable(samples))
		fmt.Fprintf(stdout, "\ncross-AZ bytes per operation type:\n%s", bench.RenderCrossAZTable(samples))
		if d.Contention != nil {
			fmt.Fprintf(stdout, "\nlock contention:\n%s", d.Contention.Render(10))
		}
		fmt.Fprintf(stdout, "\nslowest %d operations (of %d traced):\n", *slowest, sink.Total())
		for _, sp := range sink.Slowest(*slowest) {
			fmt.Fprintln(stdout, sp.Render())
		}
	}
	return nil
}

// warnTruncated prints a truncation warning when a report or export is
// built from a span ring that evicted spans.
func warnTruncated(w io.Writer, sink *trace.Sink) {
	if d := sink.Dropped(); d > 0 {
		fmt.Fprintf(w, "warning: span ring dropped %d of %d spans; output is truncated (raise the sink capacity)\n",
			d, sink.Total())
	}
}

// buildReplayDeployment builds a deployment sized for clients concurrent
// replay clients over servers metadata servers.
func buildReplayDeployment(setupName string, seed int64, servers, clients, shards int) (*core.Deployment, error) {
	setup, ok := core.SetupByName(setupName)
	if !ok {
		return nil, fmt.Errorf("unknown setup %q", setupName)
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = servers
	opts.ClientsPerServer = (clients + servers - 1) / servers
	opts.Shards = shards
	opts.Seed = seed
	return core.Build(opts)
}

// replayConcurrent shards a trace round-robin over clients concurrent
// replay processes and drives the simulation until every shard completes
// (or the virtual deadline passes). Concurrency is what makes the profile
// interesting: operations from different clients collide on shared
// directories, exercising lock contention the way closed-loop load does.
func replayConcurrent(d *core.Deployment, traceOps []workload.TraceOp, clients int, deadline time.Duration) (elapsed time.Duration, errs int, err error) {
	if clients > len(d.Clients) {
		clients = len(d.Clients)
	}
	if clients < 1 {
		clients = 1
	}
	shards := make([][]workload.TraceOp, clients)
	for i, op := range traceOps {
		shards[i%clients] = append(shards[i%clients], op)
	}
	done := 0
	for i := 0; i < clients; i++ {
		i := i
		fs := d.Clients[i]
		d.Env.Spawn(fmt.Sprintf("replay-%d", i), func(p *sim.Proc) {
			errs += workload.Replay(p, fs, shards[i])
			p.Flush()
			if t := p.Now(); t > elapsed {
				elapsed = t
			}
			done++
		})
	}
	for done < clients && d.Env.Now() < deadline {
		step := 100 * time.Millisecond
		if rem := deadline - d.Env.Now(); rem < step {
			step = rem
		}
		d.Env.RunFor(step)
	}
	if done < clients {
		return 0, 0, fmt.Errorf("replay did not complete within -deadline %v of virtual time", deadline)
	}
	return elapsed, errs, nil
}

func runProfile(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	ops := fs.Int("ops", 2000, "operations to generate and replay")
	servers := fs.Int("servers", 3, "metadata servers")
	clients := fs.Int("clients", 8, "concurrent replay clients")
	deadline := fs.Duration("deadline", 1000*time.Second, "virtual-time budget for the replay")
	format := fs.String("format", "text", "output format: text, folded, or chrome")
	out := fs.String("out", "", "output file (default stdout)")
	sinkCap := fs.Int("sink", 0, "span ring capacity (default ops+64)")
	top := fs.Int("top", 10, "rows in the contention tables")
	shards := fs.Int("shards", 1, "NDB clusters the namespace is hash-sharded across")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "text", "folded", "chrome":
	default:
		return fmt.Errorf("unknown -format %q (want text, folded or chrome)", *format)
	}
	traceOps := genTrace(*ops, *seed)
	d, err := buildReplayDeployment(*setupName, *seed, *servers, *clients, *shards)
	if err != nil {
		return err
	}
	defer d.Close()
	cap := *sinkCap
	if cap <= 0 {
		cap = len(traceOps) + 64
	}
	sink := d.EnableTracing(cap)
	elapsed, errs, err := replayConcurrent(d, traceOps, *clients, *deadline)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	spans := sink.Spans()
	switch *format {
	case "folded":
		warnTruncated(os.Stderr, sink)
		_, err = io.WriteString(w, profile.FoldedStacks(spans))
		return err
	case "chrome":
		warnTruncated(os.Stderr, sink)
		return profile.WriteChromeTrace(w, spans)
	}
	fmt.Fprintf(w, "profiled %d operations on %s (seed %d, %d replay clients, %v virtual, %d errors)\n",
		len(traceOps), d.Setup.Name, *seed, *clients, elapsed.Round(time.Millisecond), errs)
	warnTruncated(w, sink)
	rep := profile.Analyze(spans)
	fmt.Fprintf(w, "\ncritical-path attribution (share of end-to-end time per op type):\n%s", rep.Table())
	fmt.Fprintln(w)
	if d.Contention != nil {
		fmt.Fprint(w, d.Contention.Render(*top))
	} else {
		fmt.Fprintln(w, "(no contention ledger: CephFS setups run untraced)")
	}
	return nil
}

func runTimeline(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	ops := fs.Int("ops", 2000, "operations to generate and replay")
	servers := fs.Int("servers", 3, "metadata servers")
	clients := fs.Int("clients", 8, "concurrent replay clients")
	deadline := fs.Duration("deadline", 1000*time.Second, "virtual-time budget for the replay")
	interval := fs.Duration("interval", 20*time.Millisecond, "flight-recorder sampling interval (virtual time)")
	keep := fs.String("keep", "op.,txn.,net.link.,ndb.contention.", "comma-separated metric name prefixes to record")
	out := fs.String("out", "", "output file (default stdout)")
	shards := fs.Int("shards", 1, "NDB clusters the namespace is hash-sharded across")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traceOps := genTrace(*ops, *seed)
	d, err := buildReplayDeployment(*setupName, *seed, *servers, *clients, *shards)
	if err != nil {
		return err
	}
	defer d.Close()
	var prefixes []string
	for _, p := range strings.Split(*keep, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	fr := d.EnableFlightRecorder(*interval, 0, prefixes...)
	if _, _, err := replayConcurrent(d, traceOps, *clients, *deadline); err != nil {
		return err
	}
	d.StopBackground()

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := fr.WriteCSV(w); err != nil {
		return err
	}
	if fr.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "warning: flight recorder dropped %d frames; timeline is truncated (raise -interval)\n", fr.Dropped())
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d frames to %s\n", len(fr.Frames()), *out)
	}
	return nil
}

func runHotspots(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hotspots", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	ops := fs.Int("ops", 2000, "operations to generate and replay")
	servers := fs.Int("servers", 3, "metadata servers")
	clients := fs.Int("clients", 8, "concurrent replay clients")
	deadline := fs.Duration("deadline", 1000*time.Second, "virtual-time budget for the replay")
	format := fs.String("format", "text", "output format: text or csv")
	topN := fs.Int("top", 10, "rows per heat family")
	withExemplars := fs.Bool("exemplars", false, "pin tail exemplars (detailed tracing + SLO engine) and render them through the profiler")
	out := fs.String("out", "", "output file (default stdout)")
	shards := fs.Int("shards", 1, "NDB clusters the namespace is hash-sharded across (adds the per-shard heat family)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "text", "csv":
	default:
		return fmt.Errorf("unknown -format %q (want text or csv)", *format)
	}
	traceOps := genTrace(*ops, *seed)
	d, err := buildReplayDeployment(*setupName, *seed, *servers, *clients, *shards)
	if err != nil {
		return err
	}
	defer d.Close()
	h := d.EnableHeat(heat.Config{TopN: *topN})
	var (
		exemplars *slo.Exemplars
		sink      *trace.Sink
	)
	if *withExemplars {
		sink = d.EnableTracing(len(traceOps) + 64)
		d.EnableSLO(slo.Spec{}) // defaults: per-op p99 objectives
		exemplars = d.EnableExemplars(slo.ExemplarConfig{})
	}
	elapsed, errs, err := replayConcurrent(d, traceOps, *clients, *deadline)
	if err != nil {
		return err
	}
	d.StopBackground()
	now := d.Env.Now()
	rep := h.Snapshot(now, *topN)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *format == "csv" {
		if *withExemplars {
			fmt.Fprintln(os.Stderr, "warning: -exemplars output is text-only; the CSV carries the heat families")
		}
		return rep.WriteCSV(w)
	}
	fmt.Fprintf(w, "hotspots of %d operations on %s (seed %d, %d replay clients, %v virtual, %d errors)\n\n",
		len(traceOps), d.Setup.Name, *seed, *clients, elapsed.Round(time.Millisecond), errs)
	if _, err := io.WriteString(w, rep.Render()); err != nil {
		return err
	}
	if exemplars == nil {
		return nil
	}
	warnTruncated(w, sink)
	xrep := exemplars.Report(now)
	fmt.Fprintln(w)
	if _, err := io.WriteString(w, xrep.Render()); err != nil {
		return err
	}
	// Link every pinned exemplar into the critical-path profiler: one
	// attribution table over the pinned span trees, then the slowest
	// exemplar rendered as a flame-style tree.
	var roots []*trace.Span
	var slowest *slo.Exemplar
	for _, c := range xrep.Classes {
		for _, ex := range c.Exemplars {
			roots = append(roots, ex.Root)
			if slowest == nil || ex.Latency > slowest.Latency ||
				(ex.Latency == slowest.Latency && ex.Root.ID < slowest.Root.ID) {
				slowest = ex
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\ncritical-path attribution over the %d pinned exemplars:\n%s", len(roots), profile.Analyze(roots).Table())
	fmt.Fprintf(w, "\nslowest exemplar (op %s, %v, reason %s):\n%s\n",
		slowest.Op, slowest.Latency, slowest.Reason, slowest.Root.Render())
	return nil
}

func runAutoscale(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("autoscale", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	profFile := fs.String("profile", "", "load-profile file (default: the built-in compressed week)")
	out := fs.String("out", "", "write the flight-recorder timeline CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := bench.DefaultElasticOptions(*seed)
	if *profFile != "" {
		text, err := os.ReadFile(*profFile)
		if err != nil {
			return err
		}
		prof, err := loadshape.Parse(string(text))
		if err != nil {
			return err
		}
		o.Profile = prof
	}
	r, err := bench.RunElastic(bench.ModeElastic, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "elastic run over %d virtual days (%v each), %d paced clients, seed %d\n",
		o.Profile.Days, o.Profile.Day, o.Clients, *seed)
	fmt.Fprintf(stdout, "ops %d  errors %d  serving %d..%d  time>SLO %v (%.1f%%)  NN-seconds %.1f\n",
		r.Ops, r.Errors, r.MinServing, r.MaxServing,
		r.OverSLO.Round(time.Millisecond), r.OverSLOFraction()*100, r.NNSeconds)
	fmt.Fprintf(stdout, "audit checkpoints %d  violations %d  failed quiesces %d\n",
		r.Checkpoints, len(r.Violations), r.FailedQuiesces)
	for _, v := range r.Violations {
		fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
	}
	fmt.Fprintf(stdout, "\nscale events (%d up, %d down):\n%s",
		r.ScaleUps, r.ScaleDowns, autoscale.RenderEvents(r.Events))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.Recorder.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %d timeline frames to %s\n", len(r.Recorder.Frames()), *out)
	}
	return nil
}

func runSLO(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	setupName := fs.String("setup", "HopsFS-CL (3,3)", "deployment setup")
	seed := fs.Int64("seed", 1, "simulation seed")
	specFile := fs.String("spec", "", "SLO spec file (default: built-in slo.DefaultSpec)")
	schedFile := fs.String("schedule", "", "fault schedule file (default: the three-class detection schedule)")
	faults := fs.Int("faults", 0, "generate N random faults instead of the detection schedule")
	campLen := fs.Duration("len", 0, "campaign length for -faults generation (default 30s)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := chaos.CampaignOptions{SetupName: *setupName, SLO: true}
	if *specFile != "" {
		text, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err := slo.ParseSpec(string(text))
		if err != nil {
			return err
		}
		opts.SLOSpec = spec
	}
	switch {
	case *schedFile != "":
		text, err := os.ReadFile(*schedFile)
		if err != nil {
			return err
		}
		sched, err := chaos.ParseSchedule(string(text))
		if err != nil {
			return err
		}
		opts.Schedule = sched
	case *faults > 0:
		opts.Faults = *faults
		opts.CampaignLen = *campLen
	default:
		opts.Schedule = chaos.DetectionSchedule()
	}
	rep, err := chaos.RunCampaign(*seed, opts)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := io.WriteString(w, rep.Render()); err != nil {
		return err
	}
	if rep.SLO != nil {
		fmt.Fprintln(w)
		if _, err := io.WriteString(w, rep.SLO.Render()); err != nil {
			return err
		}
	}
	return nil
}

// nopFS satisfies workload.FS with no-ops so a trace can be generated
// without a live cluster.
type nopFS struct{}

var _ workload.FS = nopFS{}

func (nopFS) Mkdir(*sim.Proc, string) error          { return nil }
func (nopFS) Create(*sim.Proc, string) error         { return nil }
func (nopFS) Stat(*sim.Proc, string) error           { return nil }
func (nopFS) Read(*sim.Proc, string) error           { return nil }
func (nopFS) List(*sim.Proc, string) error           { return nil }
func (nopFS) Delete(*sim.Proc, string) error         { return nil }
func (nopFS) Rename(*sim.Proc, string, string) error { return nil }
func (nopFS) SetPermission(*sim.Proc, string) error  { return nil }
