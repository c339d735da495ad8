package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"hopsfscl/internal/bench"
	"hopsfscl/internal/chaos"
	"hopsfscl/internal/core"
	"hopsfscl/internal/heat"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/slo"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

// roundKind selects what a round records beyond the end-to-end metrics.
type roundKind int

const (
	// roundPlain measures with the benchmark's tracing off.
	roundPlain roundKind = iota
	// roundProfiled adds a runtime/pprof CPU profile of the window.
	roundProfiled
	// roundTraced turns on the deployment's detailed span sink for the
	// window and attributes every operation's critical path.
	roundTraced
)

// settle is the idle virtual time between stopping the clients and the
// audit: two election rounds, so leader election has converged.
const settle = 4 * time.Second

// chunk is the virtual length of the window slices timed separately: host
// interference comes in bursts shorter than a window, and a median over
// many slices is not dragged by one burst the way a window total is.
const chunk = 25 * time.Millisecond

// checkers is the number of concurrent processes that stat the namespace.
const checkers = 32

// roundResult is one build-warm-measure-check cycle of a workload.
type roundResult struct {
	kind roundKind

	// Host cost: setup is the wall time of core.Build plus the warm-up;
	// windowWall, allocs and heapLive cover the measured window.
	setup      time.Duration
	windowWall time.Duration
	// chunkRates are the virtual operations completed per wall second in
	// each chunk of the window.
	chunkRates []float64
	allocs     uint64
	heapLive   uint64

	// ops and failed count window operations; virtual holds every
	// simulated-system metric, which a seed fixes exactly.
	ops     int64
	failed  int64
	virtual map[string]float64

	// spans are the client spans of a traced round (nil otherwise).
	spans       []opSpan
	cpu         map[string]int64
	sinkDropped int64

	// problems lists failed correctness checks: warm-up too short, audit
	// violations, and namespace paths that no longer stat.
	problems []string
}

// runRound builds a fresh deployment, warms it, measures one window, then
// stops the clients, audits the settled cluster and stats every path the
// generators believe exists. capacity sizes the span buffers; it should
// exceed the window's operation count so the traced sink drops nothing.
func runRound(s spec, seed int64, kind roundKind, capacity int) (*roundResult, error) {
	opts, err := s.options(seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	res := &roundResult{kind: kind}

	t0 := time.Now()
	d, err := core.Build(opts)
	if err != nil {
		return nil, fmt.Errorf("build deployment: %w", err)
	}
	defer d.Close()
	env := d.Env
	if s.observed {
		// Heat runs from warm-up start so the decayed sketches reach steady
		// state, as in bench.Run.
		d.EnableHeat(heat.Config{})
	}
	rec := &recorder{spans: make([]opSpan, 0, capacity)}
	var stop bool
	var steps int64
	for i, fs := range d.Clients {
		gen := workload.NewAffineGenerator(d.Namespace, s.mix, seed+int64(i), s.homeDirs(d.Namespace, i), s.affinity)
		tfs := &timedFS{fs: fs, rec: rec, client: int32(i)}
		env.Spawn("bench-client", func(p *sim.Proc) {
			for !stop {
				gen.Step(p, tfs)
				steps++
			}
		})
	}
	env.RunFor(s.warmup)
	res.setup = time.Since(t0)
	if want := int64(minWarmOps * len(d.Clients)); steps < want {
		res.problems = append(res.problems,
			fmt.Sprintf("warm-up ran %d client steps, want at least %d", steps, want))
	}

	w := markWindow(d)
	var sink *trace.Sink
	switch {
	case kind == roundTraced:
		sink = d.EnableTracing(capacity)
	case s.observed:
		// Exemplar capture needs detailed spans: keep them as the harness
		// does for its hotspot users.
		d.EnableTracing(bench.ProfileSinkCap)
	}
	if s.observed {
		d.EnableSLO(slo.Spec{})
		d.EnableExemplars(slo.ExemplarConfig{})
	}
	var prof bytes.Buffer
	if kind == roundProfiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.on = true
	for end := env.Now() + s.window; env.Now() < end; {
		ops := len(rec.spans)
		tw := time.Now()
		env.RunFor(min(chunk, end-env.Now()))
		wall := time.Since(tw)
		res.windowWall += wall
		res.chunkRates = append(res.chunkRates, float64(len(rec.spans)-ops)/wall.Seconds())
	}
	rec.on = false
	runtime.ReadMemStats(&m1)
	if kind == roundProfiled {
		pprof.StopCPUProfile()
		cpu, err := cpuByPackage(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.cpu = cpu
	}
	res.allocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapLive = m1.HeapAlloc

	res.virtual = w.finish(d, s.window, rec.spans)
	res.ops = int64(len(rec.spans))
	for _, sp := range rec.spans {
		if sp.outcome == outcomeFailed {
			res.failed++
		}
	}
	if kind == roundTraced {
		res.spans = rec.spans
		res.sinkDropped = sink.Dropped()
		addCriticalPath(res.virtual, profile.Analyze(sink.Spans()))
	}

	stop = true
	env.RunFor(settle)
	quiesced := quiesce(d)
	if !quiesced {
		res.problems = append(res.problems, fmt.Sprintf(
			"audit: transactions or row locks did not drain within %v of settling", drainBudget))
	}
	for _, v := range chaos.NewAuditor(d).Check(env.Now(), quiesced, true) {
		res.problems = append(res.problems, "audit: "+v.String())
	}
	res.problems = append(res.problems, checkNamespace(d)...)
	return res, nil
}

// window holds the counters snapshotted when the measured window opens.
type window struct {
	reg     []trace.Sample
	nn      *metrics.UtilWindow
	threads map[string]*metrics.UtilWindow
}

// threadTypes are the NDB thread pools reported per layer.
var threadTypes = []ndb.ThreadType{ndb.LDM, ndb.TC, ndb.RECV, ndb.SEND}

func markWindow(d *core.Deployment) *window {
	now := d.Env.Now()
	w := &window{
		reg:     d.Registry.Snapshot(),
		nn:      metrics.NewUtilWindow(d.ServerCPUs()...),
		threads: make(map[string]*metrics.UtilWindow),
	}
	w.nn.Mark(now)
	for _, t := range threadTypes {
		var res []*sim.Resource
		for _, c := range d.MetaClusters() {
			for _, dn := range c.DataNodes() {
				res = append(res, dn.Threads()[t])
			}
		}
		u := metrics.NewUtilWindow(res...)
		u.Mark(now)
		w.threads[t.String()] = u
	}
	return w
}

// finish computes every virtual metric of the window: the end-to-end ones
// from the client spans, and the per-layer ones from registry deltas,
// resource utilizations and the spans.
func (w *window) finish(d *core.Deployment, length time.Duration, spans []opSpan) map[string]float64 {
	now := d.Env.Now()
	v := make(map[string]float64)
	lat := make([]time.Duration, len(spans))
	var failed, benign int
	for i, s := range spans {
		lat[i] = s.end - s.start
		switch s.outcome {
		case outcomeFailed:
			failed++
		case outcomeBenign:
			benign++
		}
	}
	slices.Sort(lat)
	n := float64(len(spans))
	v["vops_per_s"] = n / length.Seconds()
	v["vlat_p50_ms"] = ms(percentile(lat, 0.50))
	v["vlat_p99_ms"] = ms(percentile(lat, 0.99))
	v["vlat_p999_ms"] = ms(percentile(lat, 0.999))
	v["failed_frac"] = ratio(float64(failed), n)
	v["ok_frac"] = 1 - v["failed_frac"]
	v["client.outcome_err_frac"] = ratio(float64(benign), n)
	addClientOps(v, spans)

	reg := trace.Diff(w.reg, d.Registry.Snapshot())
	addRegistry(v, reg, n)
	v["namenode.util"] = w.nn.Report(now)
	for name, u := range w.threads {
		v["ndb.util."+name] = u.Report(now)
	}
	return v
}

// drainBudget bounds the wait for a quiesced instant before the audit.
const drainBudget = 500 * time.Millisecond

// quiesce runs the stopped deployment until no transaction is in flight and
// no row lock is held on any shard, as the chaos engine does before its
// audits: background election rounds keep running, but their transactions
// are short, so polling finds a clean instant between them.
func quiesce(d *core.Deployment) bool {
	deadline := d.Env.Now() + drainBudget
	for {
		drained := true
		for _, db := range d.MetaClusters() {
			if db.InFlightTxns() != 0 || len(db.HeldLocks()) != 0 {
				drained = false
			}
		}
		if drained {
			return true
		}
		if d.Env.Now() >= deadline {
			return false
		}
		d.Env.RunFor(2 * time.Millisecond)
	}
}

// checkNamespace stats every directory and file in the generators' view
// of the namespace from several clients at once and reports each path that
// does not stat cleanly.
func checkNamespace(d *core.Deployment) []string {
	paths := append(slices.Clone(d.Namespace.Dirs), d.Namespace.AllFiles()...)
	var problems []string
	done := 0
	for k := 0; k < checkers; k++ {
		fs := d.Clients[k]
		d.Env.Spawn("namespace-check", func(p *sim.Proc) {
			for i := k; i < len(paths); i += checkers {
				if err := fs.Stat(p, paths[i]); err != nil {
					problems = append(problems, fmt.Sprintf("namespace: stat %s: %v", paths[i], err))
				}
			}
			done++
		})
	}
	for deadline := d.Env.Now() + time.Hour; done < checkers; {
		if d.Env.Now() >= deadline {
			return append(problems, "namespace: check did not finish within an hour of virtual time")
		}
		d.Env.RunFor(100 * time.Millisecond)
	}
	slices.Sort(problems)
	return problems
}
