//go:build !race

package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
)

// TestRoutedBatchAllocs pins the heap allocations a routed batch adds on
// top of the ndb batch it wraps: per ReadBatch, ScanBatch and WriteBatch,
// for a batch that stays on one shard and for one split across two. Each
// figure is net of a no-op in the same Begin/Abort loop, so it counts only
// the batch call. Excluded under -race, whose instrumentation allocates.
func TestRoutedBatchAllocs(t *testing.T) {
	env, r, client := testRouter(t, 2)
	for _, c := range r.Clusters() {
		c.StopBackground()
	}
	ts := r.NewTableSet("t", 128, ndb.TableOptions{ReadBackup: true})
	var on0, on1 []string
	for i := 0; len(on0) < 3 || len(on1) < 1; i++ {
		pk := fmt.Sprintf("pk%d", i)
		if s := r.ShardOfKey(pk); s == 0 && len(on0) < 3 {
			on0 = append(on0, pk)
		} else if s == 1 && len(on1) < 1 {
			on1 = append(on1, pk)
		}
	}
	single := on0
	split := []string{on0[0], on1[0], on0[1]}

	gets := func(pks []string) []BatchGet {
		out := make([]BatchGet, len(pks))
		for i, pk := range pks {
			out[i] = BatchGet{Table: ts, PartKey: pk, Key: "k"}
		}
		return out
	}
	scans := func(pks []string) []BatchScan {
		out := make([]BatchScan, len(pks))
		for i, pk := range pks {
			out[i] = BatchScan{Table: ts, PartKey: pk, Prefix: "k"}
		}
		return out
	}
	writes := func(pks []string) []BatchWrite {
		out := make([]BatchWrite, len(pks))
		for i, pk := range pks {
			out[i] = BatchWrite{Table: ts, PartKey: pk, Key: "k", Val: "v"}
		}
		return out
	}

	// perCall runs Begin, fn, Abort n times in one process and returns the
	// mean mallocs per iteration, after a warm-up that fills every pool.
	perCall := func(fn func(tx *Txn) error) float64 {
		const warm, n = 50, 400
		var m0, m1 runtime.MemStats
		var err error
		env.Spawn("measure", func(p *sim.Proc) {
			loop := func(k int) {
				for i := 0; i < k && err == nil; i++ {
					var tx *Txn
					if tx, err = r.Begin(p, client, 1, ts, single[0]); err != nil {
						return
					}
					err = fn(tx)
					tx.Abort()
				}
			}
			loop(warm)
			runtime.GC()
			runtime.ReadMemStats(&m0)
			loop(n)
			runtime.ReadMemStats(&m1)
		})
		env.RunFor(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return float64(m1.Mallocs-m0.Mallocs) / n
	}

	noop := perCall(func(*Txn) error { return nil })
	getsSingle, getsSplit := gets(single), gets(split)
	scansSingle, scansSplit := scans(single), scans(split)
	writesSingle, writesSplit := writes(single), writes(split)
	for _, tc := range []struct {
		name    string
		fn      func(tx *Txn) error
		ceiling float64
	}{
		{"ReadBatch/single", func(tx *Txn) error { _, err := tx.ReadBatch(getsSingle); return err }, 3},
		{"ScanBatch/single", func(tx *Txn) error { _, err := tx.ScanBatch(scansSingle); return err }, 6},
		{"WriteBatch/single", func(tx *Txn) error { return tx.WriteBatch(writesSingle) }, 17},
		{"ReadBatch/split", func(tx *Txn) error { _, err := tx.ReadBatch(getsSplit); return err }, 10},
		{"ScanBatch/split", func(tx *Txn) error { _, err := tx.ScanBatch(scansSplit); return err }, 13},
		{"WriteBatch/split", func(tx *Txn) error { return tx.WriteBatch(writesSplit) }, 22},
	} {
		got := perCall(tc.fn) - noop
		t.Logf("%s: %+.2f allocs/call", tc.name, got)
		if got > tc.ceiling+0.5 {
			t.Errorf("%s allocates %+.2f objects/call beyond a no-op, want at most %+.0f", tc.name, got, tc.ceiling)
		}
	}
}
