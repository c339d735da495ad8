package namenode

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestHealthStatsWindow pins HealthStats' measurement window: each call
// reports NN CPU utilization over the interval since the previous call
// only, and a second call at the same instant reports 0.
func TestHealthStatsWindow(t *testing.T) {
	h := newHarness(t)
	const busy = 100 * time.Millisecond
	// load saturates every NN's CPU for d.
	load := func(d time.Duration) {
		for _, nn := range h.ns.NameNodes() {
			cpu := nn.CPU()
			h.env.Spawn("load", func(p *sim.Proc) { cpu.Use(p, cpu.Capacity(), d) })
		}
	}
	load(busy)
	h.env.RunFor(busy)
	live, expected, first := h.ns.HealthStats(h.env.Now())
	if live != 3 || expected != 3 {
		t.Fatalf("live=%d expected=%d, want 3/3", live, expected)
	}
	if first < 0.99 {
		t.Fatalf("saturated window util = %f, want ~1", first)
	}

	// Snapshot the busy integrals at the window boundary, then saturate
	// the CPUs for a quarter of a second window of the same length.
	from := h.env.Now()
	var at []int64
	for _, nn := range h.ns.NameNodes() {
		at = append(at, nn.CPU().BusyIntegral())
	}
	load(busy / 4)
	h.env.RunFor(busy)
	now := h.env.Now()
	var want float64
	for i, nn := range h.ns.NameNodes() {
		cpu := nn.CPU()
		want += float64(cpu.BusyIntegral()-at[i]) / (float64(cpu.Capacity()) * float64(now-from))
	}
	want /= float64(len(h.ns.NameNodes()))

	_, _, second := h.ns.HealthStats(now)
	if diff := second - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("second window util = %f, want %f (interval since the first call only)", second, want)
	}
	if second < 0.24 || second > 0.5 {
		t.Fatalf("second window util = %f, want ~0.25 from the quarter-window load alone", second)
	}
	if _, _, again := h.ns.HealthStats(now); again != 0 {
		t.Fatalf("repeat call at the same instant util = %f, want 0", again)
	}
}
