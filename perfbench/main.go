// Command perfbench is the repository benchmark: it runs one closed-loop
// workload on a HopsFS-CL deployment, checks that the file system stayed
// correct, and prints every metric by name and unit, ending with one JSON
// line.
//
//	perfbench --workload spotify --seed 1 --seconds 35 --trace 0
//
// A run repeats rounds until --seconds of wall time is spent. Each round
// builds the deployment from the seed, warms it for a fixed virtual time,
// measures a fixed virtual window, stops the clients, lets leader election
// settle, audits every NDB shard, and stats every path the workload
// generators believe exists. The simulated-system metrics must come out
// identical in every round (a determinism gate); the host metrics are
// medians over the rounds.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates rounds that take a CPU profile with rounds that record every
// operation's span tree, runs the kernel microprobes, and reports the
// per-layer metrics; the client spans of the last traced round are written
// under .bench_build/perfbench-spans. The process exits 1 when a correctness
// check fails.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spanDir receives the traced run's client spans, relative to the
// repository root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "perfbench-spans")

// errIncorrect reports a run whose correctness checks failed; its result
// line has already been printed.
var errIncorrect = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 35, "wall seconds to spend on measured rounds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "host: go=%s os=%s arch=%s gomaxprocs=%d ncpu=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "workload: %s seed=%d window=%v warmup=%v clients=%d shards=%d observed=%v\n",
		s.name, *seed, s.window, s.warmup, nameNodes*clientsPerNN, s.shards, s.observed)

	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	var probes map[string]float64
	if *traced == 1 {
		probes = runProbes(*seed)
	}
	kinds := []roundKind{roundPlain}
	minRounds := 3
	if *traced == 1 {
		kinds = []roundKind{roundProfiled, roundTraced}
		minRounds = 2
	}
	var rounds []*roundResult
	capacity := 1 << 16
	for i := 0; ; i++ {
		r, err := runRound(s, *seed, kinds[i%len(kinds)], capacity)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		// Every round of a seed serves the same operations.
		capacity = int(r.ops) + int(r.ops)/4 + 1024
		fmt.Fprintf(w, "round %d: kind=%s setup=%.3fs window=%.3fs ops=%d allocs=%d heap=%.1fMB\n",
			i, kindName(r.kind), r.setup.Seconds(), r.windowWall.Seconds(), r.ops, r.allocs, float64(r.heapLive)/(1<<20))
		elapsed := time.Since(start)
		perRound := elapsed / time.Duration(len(rounds))
		if len(rounds) >= minRounds && elapsed+perRound > budget {
			break
		}
	}

	problems := checkRounds(rounds)
	var attempted, failed int64
	for _, r := range rounds {
		attempted += r.ops
		failed += r.failed
	}
	var metrics map[string]float64
	var defs []metricDef
	if *traced == 0 {
		metrics, defs = endToEndMetrics(rounds), endToEnd
	} else {
		metrics, defs = perLayerMetrics(rounds, probes), perLayer
		problems = append(problems, checkTracedRun(metrics)...)
		if err := writeSpans(spanDir, s.name, *seed, rounds); err != nil {
			return err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("read resource usage: %w", err)
	}
	fmt.Fprintf(w, "rounds: %d in %.1fs, peak RSS %d MB; window ops per round: %d (percentiles exact over all of them)\n",
		len(rounds), time.Since(start).Seconds(), ru.Maxrss>>10, rounds[0].ops)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	if err := printResult(w, len(problems) == 0, attempted, failed, defs, metrics); err != nil {
		return err
	}
	if len(problems) > 0 {
		w.Flush()
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

func kindName(k roundKind) string {
	switch k {
	case roundProfiled:
		return "profiled"
	case roundTraced:
		return "traced"
	default:
		return "plain"
	}
}

// checkRounds collects every round's correctness problems and holds the
// determinism gate: every virtual metric of every round must equal the
// first round's exactly. Critical-path metrics exist only in traced rounds
// and are compared among those.
func checkRounds(rounds []*roundResult) []string {
	var problems []string
	for i, r := range rounds {
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, p))
		}
	}
	ref := make(map[string]float64)
	for _, r := range rounds {
		for _, k := range slices.Sorted(maps.Keys(r.virtual)) {
			x := r.virtual[k]
			want, seen := ref[k]
			if !seen {
				ref[k] = x
				continue
			}
			if math.Float64bits(x) != math.Float64bits(want) {
				problems = append(problems, fmt.Sprintf("determinism: %s is %v in one round and %v in another", k, want, x))
			}
		}
	}
	return problems
}

// checkTracedRun holds the traced run's hygiene: the span sink kept every
// operation's tree and the CPU shares account for every profile sample.
func checkTracedRun(m map[string]float64) []string {
	var problems []string
	if n := m["trace.sink_dropped"]; n != 0 {
		problems = append(problems, fmt.Sprintf("trace: the span sink dropped %.0f span trees", n))
	}
	var total float64
	for _, b := range cpuBuckets {
		total += m["cpu."+b]
	}
	if math.Abs(total-100) > 1e-6 {
		problems = append(problems, fmt.Sprintf("cpu: package shares sum to %.4f%%, want 100%%", total))
	}
	return problems
}

func endToEndMetrics(rounds []*roundResult) map[string]float64 {
	var setup, svps, allocs, heap []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		svps = append(svps, r.chunkRates...)
		allocs = append(allocs, ratio(float64(r.allocs), float64(r.ops)))
		heap = append(heap, float64(r.heapLive)/(1<<20))
	}
	v := rounds[0].virtual
	return map[string]float64{
		"setup_s":        median(setup),
		"sim_vops_per_s": median(svps),
		"allocs_per_vop": median(allocs),
		"heap_peak_mb":   median(heap),
		"vops_per_s":     v["vops_per_s"],
		"vlat_p50_ms":    v["vlat_p50_ms"],
		"vlat_p99_ms":    v["vlat_p99_ms"],
		"vlat_p999_ms":   v["vlat_p999_ms"],
		"ok_frac":        v["ok_frac"],
	}
}

func perLayerMetrics(rounds []*roundResult, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	maps.Copy(out, probes)
	cpu := make(map[string]int64)
	var total int64
	var untraced, traced []float64
	for _, r := range rounds {
		for k, n := range r.cpu {
			cpu[k] += n
			total += n
		}
		if r.kind == roundTraced {
			traced = append(traced, r.chunkRates...)
			maps.Copy(out, r.virtual)
			out["trace.sink_dropped"] = max(out["trace.sink_dropped"], float64(r.sinkDropped))
		} else {
			untraced = append(untraced, r.chunkRates...)
		}
	}
	for _, b := range cpuBuckets {
		out["cpu."+b] = 100 * ratio(float64(cpu[b]), float64(total))
	}
	out["trace.overhead_frac"] = 1 - ratio(median(traced), median(untraced))
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, correct bool, attempted, failed int64, defs []metricDef, values map[string]float64) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeSpans writes the client spans of the last traced round as
// tab-separated text: id, client, op, outcome, start and end in virtual
// nanoseconds.
func writeSpans(dir, workload string, seed int64, rounds []*roundResult) error {
	var last *roundResult
	for _, r := range rounds {
		if r.kind == roundTraced {
			last = r
		}
	}
	if last == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tclient\top\toutcome\tstart_ns\tend_ns")
	for _, s := range last.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.client, s.op, s.outcome, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
