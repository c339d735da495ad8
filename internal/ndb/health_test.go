package ndb

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestHealthStatsWindow pins HealthStats' measurement window: each call
// reports thread-pool utilization over the interval since the previous
// call only, and a second call at the same instant reports 0.
func TestHealthStatsWindow(t *testing.T) {
	env, c, _ := testCluster(t, true, 3)
	const busy = 100 * time.Millisecond
	// load saturates every thread pool of every datanode for d.
	load := func(d time.Duration) {
		for _, dn := range c.DataNodes() {
			for _, r := range dn.Threads() {
				r := r
				env.Spawn("load", func(p *sim.Proc) { r.Use(p, r.Capacity(), d) })
			}
		}
	}
	load(busy)
	env.RunFor(busy)
	live, expected, groupLost, first, _ := c.HealthStats(env.Now())
	if live != 6 || expected != 6 || groupLost {
		t.Fatalf("live=%d expected=%d groupLost=%v, want 6/6/false", live, expected, groupLost)
	}
	if first < 0.99 {
		t.Fatalf("saturated window util = %f, want ~1", first)
	}

	// Snapshot the busy integrals at the window boundary, then saturate
	// the pools for a quarter of a second window of the same length.
	from := env.Now()
	var at [][threadTypes]int64
	for _, dn := range c.DataNodes() {
		var b [threadTypes]int64
		for i, r := range dn.Threads() {
			b[i] = r.BusyIntegral()
		}
		at = append(at, b)
	}
	load(busy / 4)
	env.RunFor(busy)
	now := env.Now()
	var want float64
	for i, dn := range c.DataNodes() {
		var node float64
		for j, r := range dn.Threads() {
			node += float64(r.BusyIntegral()-at[i][j]) / (float64(r.Capacity()) * float64(now-from))
		}
		want += node / float64(threadTypes)
	}
	want /= float64(len(c.DataNodes()))

	_, _, _, second, _ := c.HealthStats(now)
	if diff := second - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("second window util = %f, want %f (interval since the first call only)", second, want)
	}
	if second < 0.24 || second > 0.5 {
		t.Fatalf("second window util = %f, want ~0.25 from the quarter-window load alone", second)
	}
	if _, _, _, again, _ := c.HealthStats(now); again != 0 {
		t.Fatalf("repeat call at the same instant util = %f, want 0", again)
	}
}
