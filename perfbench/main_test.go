package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 1000; i++ {
		lat = append(lat, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(lat, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestCPUBucketsSimKernel profiles a loop of kernel handoffs and checks
// that the samples land in the sim bucket and that every sample is
// counted exactly once.
func TestCPUBucketsSimKernel(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	env := sim.New(1)
	ping := sim.NewMailbox[int](env)
	pong := sim.NewMailbox[int](env)
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		env.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < 10000; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		})
		env.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < 10000; i++ {
				pong.Send(ping.Recv(p))
			}
		})
		env.Run()
	}
	env.Close()
	pprof.StopCPUProfile()

	got, err := cpuByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for k, n := range got {
		total += n
		if !slices.Contains(cpuBuckets, k) {
			t.Errorf("sample bucket %q is not a reported cpu.* bucket", k)
		}
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	if got["sim"] == 0 {
		t.Errorf("no samples attributed to sim: %v", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef) {
		var w []def
		for _, m := range want {
			w = append(w, def{m.name, m.unit, m.better})
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(w)
		if !bytes.Equal(a, b) {
			t.Errorf("%s in BENCHMARK.json differ from the benchmark's table; want\n%s", kind, b)
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads in BENCHMARK.json = %v, want %v", names, workloadNames())
	}
}
