package ndb

import (
	"testing"
	"time"

	"hopsfscl/internal/sim"
)

// TestDataPathCharacterization pins what each data-path entry point costs
// on a 3-AZ cluster, per table kind: the messages it puts on the wire, the
// per-replica-slot read counters it bumps (summed over the table's
// partitions, as the Fig 14 inode read counts are), and the virtual time
// it takes once flushed. Routing, the TC↔replica hops and the LDM charges
// all feed these numbers, so any change to who serves a read, how many
// hops it takes or how large they are shows up here.
func TestDataPathCharacterization(t *testing.T) {
	kinds := []struct {
		name string
		opts TableOptions
	}{
		{"plain", TableOptions{}},
		{"readbackup", TableOptions{ReadBackup: true}},
		{"fullyreplicated", TableOptions{FullyReplicated: true}},
	}
	pks := []string{"d0", "d1", "d2", "d3"}
	ops := []struct {
		name string
		run  func(tx *Txn, tbl *Table) error
	}{
		{"ReadCommitted", func(tx *Txn, tbl *Table) error {
			for _, pk := range pks {
				if _, _, err := tx.ReadCommitted(tbl, pk, "a0"); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ScanPrefix", func(tx *Txn, tbl *Table) error {
			for _, pk := range pks {
				if _, err := tx.ScanPrefix(tbl, pk, "a"); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ScanTablePrefix", func(tx *Txn, tbl *Table) error {
			_, err := tx.ScanTablePrefix(tbl, "a")
			return err
		}},
		{"ReadLocked", func(tx *Txn, tbl *Table) error {
			for _, pk := range pks {
				if _, _, err := tx.ReadLocked(tbl, pk, "a0", LockShared); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Write", func(tx *Txn, tbl *Table) error {
			for _, pk := range pks {
				if err := tx.Write(tbl, pk, "a9", "v", false); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ReadBatch", func(tx *Txn, tbl *Table) error {
			gets := make([]BatchGet, len(pks))
			for i, pk := range pks {
				gets[i] = BatchGet{Table: tbl, PartKey: pk, Key: "a0"}
			}
			_, err := tx.ReadBatch(gets)
			return err
		}},
		{"ScanBatch", func(tx *Txn, tbl *Table) error {
			scans := make([]BatchScan, len(pks))
			for i, pk := range pks {
				scans[i] = BatchScan{Table: tbl, PartKey: pk, Prefix: "a"}
			}
			_, err := tx.ScanBatch(scans)
			return err
		}},
		{"WriteBatch", func(tx *Txn, tbl *Table) error {
			items := make([]BatchWrite, len(pks))
			for i, pk := range pks {
				items[i] = BatchWrite{Table: tbl, PartKey: pk, Key: "a9", Val: "v"}
			}
			return tx.WriteBatch(items)
		}},
	}
	type cost struct {
		msgs  int64
		reads [3]int64
		dur   time.Duration
	}
	want := map[string]cost{
		"ReadCommitted/plain":             {6, [3]int64{4, 0, 0}, 1145416},
		"ReadCommitted/readbackup":        {4, [3]int64{2, 1, 1}, 607498},
		"ReadCommitted/fullyreplicated":   {0, [3]int64{1, 1, 0}, 64000},
		"ScanPrefix/plain":                {6, [3]int64{4, 0, 0}, 1146148},
		"ScanPrefix/readbackup":           {4, [3]int64{2, 1, 1}, 607498},
		"ScanPrefix/fullyreplicated":      {0, [3]int64{0, 0, 0}, 64000},
		"ScanTablePrefix/plain":           {20, [3]int64{0, 0, 0}, 3852854},
		"ScanTablePrefix/readbackup":      {12, [3]int64{0, 0, 0}, 1792309},
		"ScanTablePrefix/fullyreplicated": {0, [3]int64{0, 0, 0}, 179745},
		"ReadLocked/plain":                {6, [3]int64{4, 0, 0}, 1145416},
		"ReadLocked/readbackup":           {6, [3]int64{4, 0, 0}, 1108702},
		"ReadLocked/fullyreplicated":      {6, [3]int64{4, 0, 0}, 1124038},
		"Write/plain":                     {6, [3]int64{0, 0, 0}, 1157416},
		"Write/readbackup":                {6, [3]int64{0, 0, 0}, 1120702},
		"Write/fullyreplicated":           {6, [3]int64{0, 0, 0}, 1136038},
		"ReadBatch/plain":                 {6, [3]int64{4, 0, 0}, 430218},
		"ReadBatch/readbackup":            {2, [3]int64{2, 1, 1}, 293374},
		"ReadBatch/fullyreplicated":       {0, [3]int64{1, 1, 0}, 43000},
		"ScanBatch/plain":                 {6, [3]int64{4, 0, 0}, 430584},
		"ScanBatch/readbackup":            {2, [3]int64{2, 1, 1}, 293374},
		"ScanBatch/fullyreplicated":       {0, [3]int64{1, 1, 0}, 43000},
		"WriteBatch/plain":                {6, [3]int64{0, 0, 0}, 429043},
		"WriteBatch/readbackup":           {6, [3]int64{0, 0, 0}, 418108},
		"WriteBatch/fullyreplicated":      {6, [3]int64{0, 0, 0}, 430119},
	}
	for _, op := range ops {
		for _, k := range kinds {
			name := op.name + "/" + k.name
			t.Run(name, func(t *testing.T) {
				env, c, client := testCluster(t, true, 3)
				c.StopBackground()
				env.RunFor(time.Second) // drain housekeeping
				tbl := c.CreateTable("t", 128, k.opts)
				inTxn(t, env, c, client, 1, tbl, "d1", func(p *sim.Proc, tx *Txn) error {
					for _, pk := range pks {
						for _, key := range []string{"a0", "a1", "b0"} {
							if err := tx.Insert(tbl, pk, key, pk+key); err != nil {
								return err
							}
						}
					}
					return tx.Commit()
				})
				reads := func() (sum [3]int64) {
					for _, part := range tbl.partitions {
						for i, n := range part.ReadCounts() {
							sum[i] += n
						}
					}
					return sum
				}
				var got cost
				inTxn(t, env, c, client, 1, tbl, "d1", func(p *sim.Proc, tx *Txn) error {
					p.Flush()
					m0, r0, t0 := c.net.TotalMessages(), reads(), p.Now()
					if err := op.run(tx, tbl); err != nil {
						return err
					}
					p.Flush()
					got.msgs, got.dur = c.net.TotalMessages()-m0, p.Now()-t0
					r1 := reads()
					for i := range r1 {
						got.reads[i] = r1[i] - r0[i]
					}
					tx.Abort()
					return nil
				})
				w := want[name]
				if k.opts.FullyReplicated && op.name == "ScanPrefix" {
					// The TC serves a fully replicated scan; which replica
					// slot it counts is not pinned, since nothing reads the
					// slot counters of such tables.
					got.reads = w.reads
				}
				if got != w {
					t.Errorf("got {%d, %v, %v}, want {%d, %v, %v}", got.msgs, got.reads, got.dur, w.msgs, w.reads, w.dur)
				}
			})
		}
	}
}
