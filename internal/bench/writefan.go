package bench

import (
	"fmt"
	"time"

	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/profile"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// writeFanPoint measures multi-row write-transaction latency and wire
// footprint on a raw 3-AZ NDB cluster (6 datanodes, RF 3, Read Backup),
// with the batched write path either enabled or forced serial. Every
// transaction stages `rows` rows of one partition whose primary replica is
// deliberately NOT in the client's zone, so serial staging pays one remote
// round trip per row while the batched path pays one per primary — and all
// rows share a replica chain, so the batched commit runs one train where
// the serial path runs one 2PC chain per row. Returned alongside mean
// latency: the average wire messages per transaction, the average commit
// trains per transaction (from the ndb.commit.trains counter), and the
// critical-path attribution of the measured transactions.
func writeFanPoint(o ExpOptions, rows int, serial bool) (mean time.Duration, msgsPerTxn, trainsPerTxn float64, rep *profile.Report, err error) {
	env := sim.New(o.Seed)
	defer env.Close()
	net := simnet.New(env, simnet.USWest1())
	reg := trace.NewRegistry()
	net.SetRegistry(reg)
	tracer := trace.NewTracer(reg)

	cfg := ndb.DefaultConfig()
	cfg.DataNodes = 6
	cfg.Replication = 3
	cfg.PartitionsPerTable = 12
	cfg.AZAware = true
	cfg.DisableWriteBatching = serial
	zones := []simnet.ZoneID{1, 2, 3}
	data := ndb.SpreadPlacement(cfg.DataNodes, zones, 100)
	mgmt := []ndb.Placement{{Zone: 1, Host: 200}, {Zone: 2, Host: 201}, {Zone: 3, Host: 202}}
	c, err := ndb.New(env, net, cfg, data, mgmt)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	c.SetTracer(tracer)
	c.StopBackground()
	env.RunFor(time.Second) // drain housekeeping

	tbl := c.CreateTable("writefan", 256, ndb.TableOptions{ReadBackup: true})
	client := net.NewNode("client", 1, 300)

	// Pick a partition whose primary lives outside the client's zone: with
	// an AZ-local primary the TC serves staging itself and the serial
	// path's per-row round trips would be free, hiding exactly the cost
	// the batched path removes.
	pk := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("p%d", i)
		if dn := tbl.PrimaryFor(cand); dn != nil && dn.Domain != 1 {
			pk = cand
			break
		}
	}
	if pk == "" {
		return 0, 0, 0, nil, fmt.Errorf("writefan: no partition with a non-local primary")
	}

	const warmTxns = 4
	const measuredTxns = 64
	hist := metrics.NewHistogram()
	sink := tracer.EnableSink(measuredTxns)
	trainsC := reg.Counter("ndb.commit.trains")

	var msgs, trains int64
	done := false
	env.Spawn("writefan", func(p *sim.Proc) {
		runTxn := func(it int) error {
			sp := tracer.StartOp("writetxn", p.EffNow())
			prev := p.SetSpan(sp)
			defer func() {
				p.SetSpan(prev)
				sp.Finish(p.EffNow())
			}()
			tx, err := c.Begin(p, client, 1, tbl, pk)
			if err != nil {
				return err
			}
			items := make([]ndb.BatchWrite, rows)
			for r := range items {
				items[r] = ndb.BatchWrite{Table: tbl, PartKey: pk, Key: fmt.Sprintf("r%d", r), Val: fmt.Sprintf("v%d", it)}
			}
			if err := tx.WriteBatch(items); err != nil {
				return err
			}
			return tx.Commit()
		}
		for i := 0; i < warmTxns; i++ {
			if err := runTxn(i); err != nil {
				return
			}
		}
		p.Flush()
		msgsBefore := net.TotalMessages()
		trainsBefore := trainsC.Value()
		for i := 0; i < measuredTxns; i++ {
			t0 := p.Now()
			if err := runTxn(warmTxns + i); err != nil {
				return
			}
			p.Flush()
			hist.Observe(p.Now() - t0)
		}
		msgs = net.TotalMessages() - msgsBefore
		trains = trainsC.Value() - trainsBefore
		done = true
	})
	env.RunFor(time.Minute)
	if !done {
		return 0, 0, 0, nil, fmt.Errorf("writefan: %d-row run (serial=%v) did not complete", rows, serial)
	}
	return hist.Mean(), float64(msgs) / measuredTxns, float64(trains) / measuredTxns,
		profile.Analyze(sink.Spans()), nil
}

// WriteFan measures write-transaction latency and wire footprint as a
// function of rows per transaction, batched vs serial. The serial path pays
// one staging round trip per row and one 2PC chain per row, so both its
// latency and its message count grow linearly with the row count; the
// batched path stages all same-primary rows in one message pair and commits
// all same-chain rows as one train, so rows only add payload bytes to a
// fixed number of messages and latency stays near-flat. The run
// self-checks: it fails if the batched wire footprint is not strictly below
// the serial one at the largest row count.
func WriteFan(o ExpOptions) (string, error) {
	rowCounts := []int{1, 2, 4, 8}
	if o.Full {
		rowCounts = append(rowCounts, 16)
	}
	tbl := metrics.NewTable("rows/txn",
		"serial mean", "serial msgs", "batched mean", "batched msgs", "trains/txn", "speedup")
	var firstSerial, firstBatched, lastSerial, lastBatched time.Duration
	var lastSerialMsgs, lastBatchedMsgs float64
	var labels []string
	var reps []*profile.Report
	for i, rows := range rowCounts {
		serialMean, serialMsgs, _, serialRep, err := writeFanPoint(o, rows, true)
		if err != nil {
			return "", err
		}
		batchedMean, batchedMsgs, trains, batchedRep, err := writeFanPoint(o, rows, false)
		if err != nil {
			return "", err
		}
		if i == 0 {
			firstSerial, firstBatched = serialMean, batchedMean
		}
		lastSerial, lastBatched = serialMean, batchedMean
		lastSerialMsgs, lastBatchedMsgs = serialMsgs, batchedMsgs
		tbl.AddRow(fmt.Sprintf("%d", rows),
			fmtMS(serialMean), fmt.Sprintf("%.1f", serialMsgs),
			fmtMS(batchedMean), fmt.Sprintf("%.1f", batchedMsgs),
			fmt.Sprintf("%.1f", trains),
			fmt.Sprintf("%.2fx", float64(serialMean)/float64(batchedMean)))
		labels = append(labels,
			fmt.Sprintf("%d rows serial", rows),
			fmt.Sprintf("%d rows batched", rows))
		reps = append(reps, serialRep, batchedRep)
	}
	growth := func(first, last time.Duration) string {
		if first <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(last)/float64(first))
	}
	maxRows := rowCounts[len(rowCounts)-1]
	if lastBatchedMsgs >= lastSerialMsgs {
		return "", fmt.Errorf(
			"writefan: batched wire footprint (%.1f msgs/txn) not below serial (%.1f) at %d rows",
			lastBatchedMsgs, lastSerialMsgs, maxRows)
	}
	return fmt.Sprintf(
		"Write txn latency & wire footprint vs rows per txn — batched write path vs serial\n"+
			"raw NDB, 3 AZs, 6 datanodes, RF 3, Read Backup; all rows in one remote-primary partition\n%s"+
			"latency growth %d -> %d rows: serial %s, batched %s\n"+
			"footprint check: batched %.1f msgs/txn < serial %.1f at %d rows — OK\n"+
			"(serial pays a staging round trip and a 2PC chain per row; batched stages one train per\n"+
			"primary and commits one train per replica chain)\n"+
			"\nwhere the time went (critical-path share of measured txns):\n%s",
		tbl.String(), rowCounts[0], maxRows,
		growth(firstSerial, lastSerial), growth(firstBatched, lastBatched),
		lastBatchedMsgs, lastSerialMsgs, maxRows,
		renderAttribution(labels, reps)), nil
}
