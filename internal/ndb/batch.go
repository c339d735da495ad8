package ndb

import (
	"strconv"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/trace"
)

// This file implements the batched read API of the primary-key-batched path
// resolution protocol (HopsFS [23] §3.2.2 and the λFS elasticity argument):
// instead of one serial round trip per row, the transaction coordinator fans
// all reads out to their routed replicas in one shot. Rows are grouped by
// target datanode, each group travels as a single request/response pair, and
// the groups proceed concurrently. Per-row routing honors the same rules as
// ReadCommitted/ScanPrefix: fully replicated tables serve from the TC, Read
// Backup tables from the replica nearest the TC, plain tables from the
// primary replica. The per-row LDM charges flow through DataNode.use, so the
// executor batching cost model (threads.go) amortizes them exactly as NDB's
// LDM threads do for a multi-row TCKEYREQ train.

// BatchGet names one row of a ReadBatch: a committed, lock-free point read.
type BatchGet struct {
	Table   *Table
	PartKey string
	Key     string
}

// BatchVal is the result of one BatchGet.
type BatchVal struct {
	Val Value
	OK  bool
}

// BatchScan names one partition-pruned prefix scan of a ScanBatch.
type BatchScan struct {
	Table   *Table
	PartKey string
	Prefix  string
}

// batchRowOverhead is the nominal wire size each additional row key adds to
// a batched request beyond the first.
const batchRowOverhead = 24

// batchGroup is the per-target slice of a batch: the rows (indices into the
// caller's request slice) served by one datanode, plus the §IV-A4 proximity
// of that datanode to the TC. rows is groupByTarget's counting scratch.
type batchGroup struct {
	target *DataNode
	prox   int
	rows   int
	idx    []int
}

// routeRow is the §IV-A5 read-routing rule, the one copy every read path
// shares: a fully replicated row is served by the TC itself, a Read Backup
// row by the alive replica nearest the TC, and any other row by the
// primary replica. It returns the serving datanode — nil when none is
// alive — and its replica slot, -1 when the TC serves a fully replicated
// row it holds no slot of.
func (t *Txn) routeRow(part *Partition) (*DataNode, int) {
	reps := part.replicas()
	if len(reps) == 0 {
		return nil, -1
	}
	var target *DataNode
	slot := -1
	switch {
	case part.table.opts.FullyReplicated:
		target = t.tc
		for i, r := range reps {
			if r == target {
				slot = i
			}
		}
	case part.table.opts.ReadBackup:
		best := ProximityRemote + 1
		for i, r := range reps {
			if !r.Alive() {
				continue
			}
			if d := domainProximity(t.tc.Node, t.tc.Domain, r); d < best {
				best, target, slot = d, r, i
			}
		}
	default:
		target, slot = reps[0], 0
	}
	if target != nil && !target.Alive() {
		target = nil
	}
	return target, slot
}

// toReplica carries a request of size bytes from the TC to target on p,
// charging target's receive; fromReplica carries the response back,
// charging target's send and the TC's receive. Both are free when the TC
// serves the request itself, and report false when the hop is lost.
func (t *Txn) toReplica(p *sim.Proc, target *DataNode, size int) bool {
	if target == t.tc {
		return true
	}
	if !t.c.net.TravelDeferred(p, t.tc.Node, target.Node, size, t.c.cfg.RPCTimeout) {
		return false
	}
	target.recv(p)
	return true
}

func (t *Txn) fromReplica(p *sim.Proc, target *DataNode, size int) bool {
	if target == t.tc {
		return true
	}
	target.send(p)
	if !t.c.net.TravelDeferred(p, target.Node, t.tc.Node, size, t.c.cfg.RPCTimeout) {
		return false
	}
	t.tc.recv(p)
	return true
}

// groupByTarget routes every row and groups the row indices by target
// datanode, preserving first-appearance order for determinism. route is
// called once per row index. Batches are small (a path's worth of rows over
// a handful of targets), so groups are found by linear scan and the index
// lists are carved out of one shared array — no per-batch map, no per-group
// slice growth.
func groupByTarget(sc *batchScratch, n int, route func(i int) (*DataNode, bool)) ([]*batchGroup, bool) {
	if cap(sc.targets) < n {
		sc.targets = make([]*DataNode, n)
	}
	targets := sc.targets[:n]
	for i := 0; i < n; i++ {
		target, ok := route(i)
		if !ok {
			return nil, false
		}
		targets[i] = target
	}
	// backing is pre-sized so appends never reallocate: pointers handed out
	// in groups stay valid.
	if cap(sc.backing) < n {
		sc.backing = make([]batchGroup, 0, n)
		sc.groups = make([]*batchGroup, 0, n)
		sc.buf = make([]int, 0, n)
	}
	backing := sc.backing[:0]
	groups := sc.groups[:0]
	for _, target := range targets {
		g := findGroup(groups, target)
		if g == nil {
			backing = append(backing, batchGroup{target: target})
			g = &backing[len(backing)-1]
			groups = append(groups, g)
		}
		g.rows++
	}
	buf := sc.buf[:0]
	for _, g := range groups {
		g.idx = buf[len(buf) : len(buf) : len(buf)+g.rows]
		buf = buf[:len(buf)+g.rows]
	}
	for i, target := range targets {
		g := findGroup(groups, target)
		g.idx = append(g.idx, i)
	}
	return groups, true
}

func findGroup(groups []*batchGroup, target *DataNode) *batchGroup {
	for _, g := range groups {
		if g.target == target {
			return g
		}
	}
	return nil
}

// ReadBatch reads the committed values of all rows in one batched fan-out,
// returning results positionally. Routing is per row (see the file comment);
// rows sharing a target travel together, distinct targets are visited
// concurrently. The whole batch is one "batch_read" child span, and the
// registry counts rows per proximity class of their serving replica. Any
// unreachable target aborts the transaction, as ReadCommitted would.
func (t *Txn) ReadBatch(gets []BatchGet) ([]BatchVal, error) {
	if t.done {
		return nil, ErrAborted
	}
	out := make([]BatchVal, len(gets))
	if len(gets) == 0 {
		return out, nil
	}
	cfg := &t.c.cfg
	// One coordinator pass routes the whole key train (§II-B: a multi-row
	// TCKEYREQ is a single TC job, not one per row).
	t.tc.use(t.p, TC, cfg.Costs.TCOp)

	sc := t.c.getScratch()
	defer t.c.putScratch(sc)
	slots := sc.intsFor(len(gets))
	parts := sc.partsFor(len(gets))
	groups, ok := groupByTarget(sc, len(gets), func(i int) (*DataNode, bool) {
		parts[i] = t.access(gets[i].Table, gets[i].PartKey)
		target, slot := t.routeRow(parts[i])
		slots[i] = slot
		return target, target != nil
	})
	if !ok {
		return nil, t.failAbort()
	}

	serve := func(p *sim.Proc, g *batchGroup) bool {
		target := g.target
		if !t.toReplica(p, target, reqSize+batchRowOverhead*(len(g.idx)-1)) {
			return false
		}
		resp := ackSize
		for _, i := range g.idx {
			target.use(p, LDM, cfg.Costs.LDMRead)
			val, exists := parts[i].committed(gets[i].PartKey, gets[i].Key)
			out[i] = BatchVal{Val: val, OK: exists}
			if slots[i] >= 0 {
				parts[i].reads[slots[i]]++
			}
			resp += gets[i].Table.rowSize
		}
		return t.fromReplica(p, target, resp)
	}
	if !t.runBatch("read", groups, len(gets), serve) {
		return nil, t.failAbort()
	}
	return out, nil
}

// ScanBatch runs all partition-pruned prefix scans in one batched fan-out,
// returning each scan's rows positionally (key-sorted, as ScanPrefix).
// Scans sharing a target replica travel together; distinct targets are
// visited concurrently — a level of a subtree walk costs one parallel round
// instead of one serial round trip per directory.
func (t *Txn) ScanBatch(scans []BatchScan) ([][]KV, error) {
	if t.done {
		return nil, ErrAborted
	}
	out := make([][]KV, len(scans))
	if len(scans) == 0 {
		return out, nil
	}
	cfg := &t.c.cfg
	t.tc.use(t.p, TC, cfg.Costs.TCOp)

	sc := t.c.getScratch()
	defer t.c.putScratch(sc)
	slots := sc.intsFor(len(scans))
	parts := sc.partsFor(len(scans))
	groups, ok := groupByTarget(sc, len(scans), func(i int) (*DataNode, bool) {
		parts[i] = t.access(scans[i].Table, scans[i].PartKey)
		target, slot := t.routeRow(parts[i])
		slots[i] = slot
		return target, target != nil
	})
	if !ok {
		return nil, t.failAbort()
	}

	serve := func(p *sim.Proc, g *batchGroup) bool {
		target := g.target
		if !t.toReplica(p, target, reqSize+batchRowOverhead*(len(g.idx)-1)) {
			return false
		}
		resp := ackSize
		for _, i := range g.idx {
			rows := parts[i].scanPrefix(scans[i].PartKey, scans[i].Prefix)
			out[i] = rows
			// One LDM charge per small batch of rows scanned, minimum one
			// (the ScanPrefix cost model).
			for b := 0; b < 1+len(rows)/8; b++ {
				target.use(p, LDM, cfg.Costs.LDMRead)
			}
			if slots[i] >= 0 {
				parts[i].reads[slots[i]]++
			}
			resp += len(rows) * scans[i].Table.rowSize
		}
		return t.fromReplica(p, target, resp)
	}
	if !t.runBatch("read", groups, len(scans), serve) {
		return nil, t.failAbort()
	}
	return out, nil
}

// runBatch executes the groups of one batch — inline when a single target
// serves everything, concurrently via sub-processes otherwise — under one
// "batch_<kind>" child span carrying row/target counts. kind is "read" or
// "write" and selects which registry family counts the fan-out. It returns
// false if any group failed (unreachable target, or a lock failure on the
// write path).
func (t *Txn) runBatch(kind string, groups []*batchGroup, rows int, serve func(p *sim.Proc, g *batchGroup) bool) bool {
	obs := t.c.obs
	sp := t.p.Span().Child("batch_"+kind, t.p.EffNow())
	var prev *trace.Span
	if sp != nil {
		sp.SetAttr("rows", strconv.Itoa(rows))
		sp.SetAttr("targets", strconv.Itoa(len(groups)))
		prev = t.p.SetSpan(sp)
	}
	defer func() {
		if sp != nil {
			sp.Finish(t.p.EffNow())
			t.p.SetSpan(prev)
		}
	}()
	if obs != nil {
		batches, rowsByProx := obs.batchReads, &obs.batchRows
		if kind == "write" {
			batches, rowsByProx = obs.batchWrites, &obs.batchWriteRows
		}
		batches.Add(1)
		for _, g := range groups {
			g.prox = domainProximity(t.tc.Node, t.tc.Domain, g.target)
			rowsByProx[g.prox].Add(int64(len(g.idx)))
		}
	}
	if len(groups) == 1 {
		return serve(t.p, groups[0])
	}
	// Concurrent deferred travel: each remote group is a pooled worker arm
	// starting from the transaction's current effective instant, so the
	// batch's latency is the slowest group, not the sum. The serve closure
	// is shared across arms and the results mailbox is pooled, so the
	// fan-out itself allocates nothing.
	t.p.Flush()
	fanSpan := sp
	if fanSpan == nil {
		fanSpan = t.p.Span()
	}
	results := t.c.getBoolMbx()
	for _, g := range groups {
		t.c.dispatch(fanTask{span: fanSpan, g: g, serve: serve, boolResults: results})
	}
	allOK := true
	for range groups {
		if !results.Recv(t.p) {
			allOK = false
		}
	}
	t.c.putBoolMbx(results)
	return allOK
}

// Annotate tags the calling process's active trace span (a no-op when
// tracing is off). Layers above use it to mark operations that took a
// batched path without threading the process handle around.
func (t *Txn) Annotate(key, value string) {
	t.p.Span().SetAttr(key, value)
}
