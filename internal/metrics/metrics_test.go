package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Percentile(0.5); got < 49*time.Millisecond || got > 51*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(0.99); got < 98*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}

// TestHistogramPercentileNearestRank pins the ceiling nearest-rank
// definition: Percentile(q) is the smallest sample with at least a q
// fraction of the sample at or below it. Truncating the rank instead
// biases small-sample tails low — p99 of 10 samples must be the 10th
// value, not the 9th.
func TestHistogramPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"1-sample p50", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"1-sample p99", []time.Duration{ms(7)}, 0.99, ms(7)},
		{"1-sample p100", []time.Duration{ms(7)}, 1.0, ms(7)},
		{"2-sample p50", []time.Duration{ms(1), ms(2)}, 0.5, ms(1)},
		{"2-sample p51", []time.Duration{ms(1), ms(2)}, 0.51, ms(2)},
		{"2-sample p99", []time.Duration{ms(1), ms(2)}, 0.99, ms(2)},
		{"10-sample p10", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.10, ms(1)},
		{"10-sample p50", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.50, ms(5)},
		{"10-sample p90", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.90, ms(9)},
		{"10-sample p99", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 0.99, ms(10)},
		{"10-sample p100", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}, 1.0, ms(10)},
	}
	for _, tc := range cases {
		h := NewHistogram()
		for _, d := range tc.samples {
			h.Observe(d)
		}
		if got := h.Percentile(tc.q); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramExact pins that the histogram keeps every sample: over
// 100,000 observations (past any fixed sample budget) each percentile is
// the ceiling nearest-rank of the sorted input.
func TestHistogramExact(t *testing.T) {
	const n = 100000
	h := NewHistogram()
	in := make([]time.Duration, n)
	for i := range in {
		// A multiplicative-hash scramble: unsorted input spread over 50ms.
		in[i] = time.Duration(uint64(i) * 2654435761 % uint64(50*time.Millisecond))
		h.Observe(in[i])
	}
	slices.Sort(in)
	if h.Count() != n || h.Max() != in[n-1] {
		t.Fatalf("count=%d max=%v, want %d and %v", h.Count(), h.Max(), n, in[n-1])
	}
	for _, q := range []float64{0.00001, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		want := in[int(math.Ceil(q*n))-1]
		if got := h.Percentile(q); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestHistogramPercentileCacheInvalidation(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(1.0); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v, want 10ms", got)
	}
	// A later observation must be visible to the next query even though a
	// sorted view was already cached.
	h.Observe(time.Second)
	if got := h.Percentile(1.0); got != time.Second {
		t.Fatalf("p100 after new max = %v, want 1s", got)
	}
	// 11 samples now: the median is the 6th smallest (ceiling nearest
	// rank), not the 5th.
	if got := h.Percentile(0.5); got != 6*time.Millisecond {
		t.Fatalf("p50 = %v, want 6ms", got)
	}
}

func TestUtilWindow(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	res := sim.NewResource(env, "cpu", 2)
	env.Spawn("w", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // outside window activity later
		res.Use(p, 2, 10*time.Millisecond)
	})
	u := NewUtilWindow(res)
	env.RunFor(10 * time.Millisecond)
	u.Mark(env.Now())
	env.RunFor(10 * time.Millisecond)
	got := u.Report(env.Now())
	if got < 0.99 || got > 1.01 {
		t.Fatalf("window util = %f, want 1.0", got)
	}
	// Next window: idle.
	u.Mark(env.Now())
	env.RunFor(10 * time.Millisecond)
	if got := u.Report(env.Now()); got != 0 {
		t.Fatalf("idle window util = %f", got)
	}
}

func TestRateFormatting(t *testing.T) {
	tests := []struct {
		rate float64
		want string
	}{
		{1_660_000, "1.66M"},
		{770_000, "770K"},
		{950, "950"},
	}
	for _, tt := range tests {
		if got := FormatOps(tt.rate); got != tt.want {
			t.Errorf("FormatOps(%f) = %q, want %q", tt.rate, got, tt.want)
		}
	}
	if got := OpsPerSec(100, time.Second); got != 100 {
		t.Errorf("OpsPerSec = %f", got)
	}
	if got := OpsPerSec(100, 0); got != 0 {
		t.Errorf("OpsPerSec zero window = %f", got)
	}
}

func TestTableRendersAligned(t *testing.T) {
	tbl := NewTable("setup", "ops/sec")
	tbl.AddRow("HopsFS (2,1)", "1.62M")
	tbl.AddRow("CephFS", "770K")
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "setup") || !strings.Contains(lines[2], "1.62M") {
		t.Fatalf("unexpected table:\n%s", out)
	}
}

func TestZeroWindowAndEmptyGuards(t *testing.T) {
	// Rates over an empty or inverted window must not divide by zero.
	cases := []struct {
		ops    int64
		window time.Duration
	}{
		{0, 0}, {100, 0}, {100, -time.Second}, {0, time.Second},
	}
	for _, c := range cases {
		if got := OpsPerSec(c.ops, c.window); got != 0 && c.window <= 0 {
			t.Errorf("OpsPerSec(%d, %v) = %v, want 0", c.ops, c.window, got)
		}
		s := Rate(c.ops, c.window)
		if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("Rate(%d, %v) = %q", c.ops, c.window, s)
		}
	}

	// An untouched histogram reports zeros, not NaN.
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram: mean=%v max=%v count=%d", h.Mean(), h.Max(), h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(q); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v", q, got)
		}
	}
}

func TestFormatOpsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := FormatOps(v); got != "0" {
			t.Errorf("FormatOps(%v) = %q, want \"0\"", v, got)
		}
	}
	if got := FormatOps(1.66e6); got != "1.66M" {
		t.Errorf("FormatOps(1.66e6) = %q", got)
	}
}
