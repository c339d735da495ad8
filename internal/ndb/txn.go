package ndb

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// Txn is a transaction coordinated by one datanode's TC thread on behalf of
// an API client (a HopsFS metadata server). The calling process drives the
// protocol; every hop between nodes is a simulated message with latency,
// bandwidth, and CPU accounting.
//
// Isolation follows NDB: read committed by default, with explicit row locks
// for stronger guarantees (§II-B). Locks follow strict two-phase locking
// and are released as the commit chain passes the primary replica.
type Txn struct {
	c            *Cluster
	p            *sim.Proc
	id           uint64
	origin       *simnet.Node
	originDomain simnet.ZoneID
	tc           *DataNode

	locks  []lockRef
	writes []writeOp
	done   bool
}

type lockRef struct {
	part *Partition
	pk   string
	key  string
}

type writeOp struct {
	part *Partition
	pk   string
	key  string
	val  Value
	del  bool
}

// reqSize/ackSize are nominal wire sizes of protocol messages.
const (
	reqSize = 128
	ackSize = 64
)

// Begin starts a transaction from the given origin node (with the origin's
// LocationDomainId), using table and partKey as the distribution-aware hint
// for transaction-coordinator selection (§IV-A5). A nil table or empty
// partKey is the no-hint fallback (case 4).
func (c *Cluster) Begin(p *sim.Proc, origin *simnet.Node, originDomain simnet.ZoneID, table *Table, partKey string) (*Txn, error) {
	tc := c.selectTC(origin, originDomain, table, partKey)
	if tc == nil {
		return nil, ErrNoNodes
	}
	if sp := p.Span(); c.obs != nil || sp != nil {
		d := domainProximity(origin, originDomain, tc)
		if c.obs != nil {
			c.obs.tcSelect[d].Add(1)
		}
		sp.SetAttr("tc", tc.Node.Name())
		sp.SetAttr("tc_prox", proximityLabel(d))
	}
	t := &Txn{
		c:            c,
		p:            p,
		id:           c.nextTxnID(),
		origin:       origin,
		originDomain: originDomain,
		tc:           tc,
	}
	if c.activeOps != nil {
		// Name the transaction after the client op driving it (the process
		// name for untraced internal work), so the contention ledger can
		// label both sides of a wait-for edge.
		op := p.Span().OpName()
		if op == "" {
			op = p.Name()
		}
		c.activeOps[t.id] = op
	}
	if !c.net.TravelDeferred(p, origin, tc.Node, reqSize, c.cfg.RPCTimeout) {
		return nil, ErrNodeUnavailable
	}
	tc.recv(p)
	tc.use(p, TC, c.cfg.Costs.TCBegin)
	c.Stats.Begun++
	return t, nil
}

func (c *Cluster) nextTxnID() uint64 {
	c.txnSeq++
	return c.txnSeq
}

// selectTC implements the four-case AZ-aware coordinator selection policy
// of §IV-A5. Ties are broken by the candidate order (primary replica first,
// as NDB's distribution awareness orders them), then randomly among nodes
// of equal proximity to spread coordination load.
func (c *Cluster) selectTC(origin *simnet.Node, originDomain simnet.ZoneID, table *Table, partKey string) *DataNode {
	var candidates []*DataNode
	switch {
	case table != nil && partKey != "" && table.opts.FullyReplicated:
		// Case 2: a replica exists on every node; use them all.
		candidates = c.datanodes
	case table != nil && partKey != "":
		// Cases 1 and 3: the nodes holding the hinted partition,
		// primary replica first.
		candidates = table.partitionFor(partKey).replicas()
	default:
		// Case 4: no usable hint; all datanodes by proximity.
		candidates = c.datanodes
	}
	best := ProximityRemote + 1
	var pool []*DataNode
	for _, dn := range candidates {
		if !dn.Alive() {
			continue
		}
		d := domainProximity(origin, originDomain, dn)
		if d < best {
			best = d
			pool = pool[:0]
		}
		if d == best {
			pool = append(pool, dn)
		}
	}
	switch len(pool) {
	case 0:
		return nil
	case 1:
		return pool[0]
	}
	if best == ProximityRemote {
		// No locality information distinguishes the pool; NDB prefers the
		// first candidate (the primary replica under distribution
		// awareness).
		return pool[0]
	}
	return pool[c.env.Rand().Intn(len(pool))]
}

// Proximity distances mirror simnet's but operate on configured location
// domains, not physical zones: an unconfigured deployment gets no locality.
const (
	ProximitySameHost = simnet.ProximitySameHost
	ProximitySameZone = simnet.ProximitySameZone
	ProximityRemote   = simnet.ProximityRemote
)

// domainProximity is the §IV-A4 score between a caller (its node and
// configured domain) and a datanode, using LocationDomainIds.
func domainProximity(origin *simnet.Node, originDomain simnet.ZoneID, dn *DataNode) int {
	if origin.Host() == dn.Node.Host() && originDomain == dn.Domain && originDomain != simnet.ZoneUnset {
		return ProximitySameHost
	}
	if originDomain != simnet.ZoneUnset && originDomain == dn.Domain {
		return ProximitySameZone
	}
	return ProximityRemote
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// access returns the partition of table holding partKey and emits the row
// access to the tracer's subscribers.
func (t *Txn) access(table *Table, partKey string) *Partition {
	part := table.partitionFor(partKey)
	if tr := t.c.tracer; tr.Subscribed() {
		tr.Emit(trace.Event{Kind: trace.RowAccess, At: t.p.Now(), Table: table.name, Index: part.index})
	}
	return part
}

// Coordinator returns the datanode coordinating this transaction.
func (t *Txn) Coordinator() *DataNode { return t.tc }

// Cluster returns the cluster this transaction runs against.
func (t *Txn) Cluster() *Cluster { return t.c }

// HasWrites reports whether the transaction has staged any writes; the
// shard router uses it to pick between the single-cluster fast path and
// the cross-shard intent protocol.
func (t *Txn) HasWrites() bool { return len(t.writes) > 0 }

// StagedWrites calls fn for every write staged so far, in staging order.
// The shard router serializes these into a durable intent record before
// committing a cross-shard transaction, so a crash between the per-shard
// commits leaves enough to finish or undo the operation.
func (t *Txn) StagedWrites(fn func(table *Table, partKey, key string, val Value, del bool)) {
	for _, w := range t.writes {
		fn(w.part.table, w.pk, w.key, w.val, w.del)
	}
}

// ReadCommitted reads the committed value of a row without locking. Routing
// follows §IV-A5: Read Backup tables may serve from the TC-local replica
// (primary or backup), fully replicated tables serve from the TC itself,
// and plain tables always read the primary replica.
func (t *Txn) ReadCommitted(table *Table, partKey, key string) (Value, bool, error) {
	if t.done {
		return nil, false, ErrAborted
	}
	cfg := &t.c.cfg
	t.tc.use(t.p, TC, cfg.Costs.TCOp)
	part := t.access(table, partKey)
	reps := part.replicas()
	if len(reps) == 0 {
		return nil, false, t.failAbort()
	}

	var target *DataNode
	slot := -1
	switch {
	case table.opts.FullyReplicated:
		// Every datanode has the row; the TC serves it locally.
		target = t.tc
		for i, r := range reps {
			if r == target {
				slot = i
			}
		}
	case table.opts.ReadBackup:
		// Any replica is consistent; prefer the one nearest the TC.
		best := ProximityRemote + 1
		for i, r := range reps {
			if !r.Alive() {
				continue
			}
			d := domainProximity(t.tc.Node, t.tc.Domain, r)
			if d < best {
				best, target, slot = d, r, i
			}
		}
	default:
		// Reads are rerouted to the primary replica.
		target, slot = reps[0], 0
	}
	if target == nil || !target.Alive() {
		return nil, false, t.failAbort()
	}
	if slot >= 0 {
		part.reads[slot]++
	}
	if target != t.tc {
		if !t.c.net.TravelDeferred(t.p, t.tc.Node, target.Node, reqSize, cfg.RPCTimeout) {
			return nil, false, t.failAbort()
		}
		target.recv(t.p)
	}
	target.use(t.p, LDM, cfg.Costs.LDMRead)
	val, ok := part.committed(partKey, key)
	if target != t.tc {
		target.send(t.p)
		if !t.c.net.TravelDeferred(t.p, target.Node, t.tc.Node, ackSize+table.rowSize, cfg.RPCTimeout) {
			return nil, false, t.failAbort()
		}
		t.tc.recv(t.p)
	}
	return val, ok, nil
}

// KV is one row returned by a scan.
type KV struct {
	Key string
	Val Value
}

// ScanPrefix reads all committed rows of the hinted partition whose key
// starts with prefix, in key order. HopsFS uses it for partition-pruned
// index scans (directory listings): inodes are partitioned by parent id, so
// a directory's children live in a single partition. Routing follows the
// same rules as ReadCommitted.
func (t *Txn) ScanPrefix(table *Table, partKey, prefix string) ([]KV, error) {
	if t.done {
		return nil, ErrAborted
	}
	cfg := &t.c.cfg
	t.tc.use(t.p, TC, cfg.Costs.TCOp)
	part := t.access(table, partKey)
	reps := part.replicas()
	if len(reps) == 0 {
		return nil, t.failAbort()
	}
	target := reps[0]
	slot := 0
	if table.opts.FullyReplicated {
		target, slot = t.tc, -1
	} else if table.opts.ReadBackup {
		best := ProximityRemote + 1
		for i, r := range reps {
			d := domainProximity(t.tc.Node, t.tc.Domain, r)
			if d < best {
				best, target, slot = d, r, i
			}
		}
	}
	if target != t.tc {
		if !t.c.net.TravelDeferred(t.p, t.tc.Node, target.Node, reqSize, cfg.RPCTimeout) {
			return nil, t.failAbort()
		}
		target.recv(t.p)
	}
	out := part.scanPrefix(partKey, prefix)
	// One LDM charge per small batch of rows scanned, minimum one.
	batches := 1 + len(out)/8
	for i := 0; i < batches; i++ {
		target.use(t.p, LDM, cfg.Costs.LDMRead)
	}
	if slot >= 0 {
		part.reads[slot]++
	}
	if target != t.tc {
		target.send(t.p)
		size := ackSize + len(out)*table.rowSize
		if !t.c.net.TravelDeferred(t.p, target.Node, t.tc.Node, size, cfg.RPCTimeout) {
			return nil, t.failAbort()
		}
		t.tc.recv(t.p)
	}
	return out, nil
}

// ScanTablePrefix scans every partition of the table for committed rows
// whose key starts with prefix, in key order. It exists for listings whose
// rows are deliberately scattered across partitions (a HopsFS root
// directory listing); it costs one routed scan per partition.
func (t *Txn) ScanTablePrefix(table *Table, prefix string) ([]KV, error) {
	if t.done {
		return nil, ErrAborted
	}
	cfg := &t.c.cfg
	var out []KV
	for _, part := range table.partitions {
		t.tc.use(t.p, TC, cfg.Costs.TCOp)
		reps := part.replicas()
		if len(reps) == 0 {
			return nil, t.failAbort()
		}
		target := reps[0]
		if table.opts.FullyReplicated {
			target = t.tc
		} else if table.opts.ReadBackup {
			best := ProximityRemote + 1
			for _, r := range reps {
				if d := domainProximity(t.tc.Node, t.tc.Domain, r); d < best {
					best, target = d, r
				}
			}
		}
		if target != t.tc {
			if !t.c.net.TravelDeferred(t.p, t.tc.Node, target.Node, reqSize, cfg.RPCTimeout) {
				return nil, t.failAbort()
			}
			target.recv(t.p)
		}
		var found int
		for _, bucket := range part.rows {
			for k, r := range bucket {
				if r.exists && strings.HasPrefix(k, prefix) {
					out = append(out, KV{Key: k, Val: r.val})
					found++
				}
			}
		}
		for i := 0; i < 1+found/8; i++ {
			target.use(t.p, LDM, cfg.Costs.LDMRead)
		}
		if target != t.tc {
			target.send(t.p)
			if !t.c.net.TravelDeferred(t.p, target.Node, t.tc.Node, ackSize+found*table.rowSize, cfg.RPCTimeout) {
				return nil, t.failAbort()
			}
			t.tc.recv(t.p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ReadLocked reads a row under a shared or exclusive lock. Locked reads
// always go to the primary replica (§II-B2) and guarantee the latest
// committed data.
func (t *Txn) ReadLocked(table *Table, partKey, key string, mode LockMode) (Value, bool, error) {
	if t.done {
		return nil, false, ErrAborted
	}
	cfg := &t.c.cfg
	t.tc.use(t.p, TC, cfg.Costs.TCOp)
	part := t.access(table, partKey)
	reps := part.replicas()
	if len(reps) == 0 {
		return nil, false, t.failAbort()
	}
	primary := reps[0]
	if primary != t.tc {
		if !t.c.net.TravelDeferred(t.p, t.tc.Node, primary.Node, reqSize, cfg.RPCTimeout) {
			return nil, false, t.failAbort()
		}
		primary.recv(t.p)
	}
	if err := t.lockRow(part, partKey, key, mode); err != nil {
		t.abortLocked()
		return nil, false, err
	}
	primary.use(t.p, LDM, cfg.Costs.LDMRead)
	part.reads[0]++
	val, ok := part.committed(partKey, key)
	if primary != t.tc {
		primary.send(t.p)
		if !t.c.net.TravelDeferred(t.p, primary.Node, t.tc.Node, ackSize+table.rowSize, cfg.RPCTimeout) {
			return nil, false, t.failAbort()
		}
		t.tc.recv(t.p)
	}
	return val, ok, nil
}

// Write stages an insert/update (val != nil, del == false) or delete
// (del == true) of a row, taking an exclusive lock on the primary replica
// at operation time, as NDB does. The mutation becomes visible at commit.
func (t *Txn) Write(table *Table, partKey, key string, val Value, del bool) error {
	if t.done {
		return ErrAborted
	}
	cfg := &t.c.cfg
	t.tc.use(t.p, TC, cfg.Costs.TCOp)
	part := t.access(table, partKey)
	reps := part.replicas()
	if len(reps) == 0 {
		return t.failAbort()
	}
	primary := reps[0]
	if primary != t.tc {
		if !t.c.net.TravelDeferred(t.p, t.tc.Node, primary.Node, reqSize+table.rowSize, cfg.RPCTimeout) {
			return t.failAbort()
		}
		primary.recv(t.p)
	}
	if err := t.lockRow(part, partKey, key, LockExclusive); err != nil {
		t.abortLocked()
		return err
	}
	primary.use(t.p, LDM, cfg.Costs.LDMWrite)
	if primary != t.tc {
		primary.send(t.p)
		if !t.c.net.TravelDeferred(t.p, primary.Node, t.tc.Node, ackSize, cfg.RPCTimeout) {
			return t.failAbort()
		}
		t.tc.recv(t.p)
	}
	t.writes = append(t.writes, writeOp{part: part, pk: partKey, key: key, val: val, del: del})
	return nil
}

// Insert is Write with a value.
func (t *Txn) Insert(table *Table, partKey, key string, val Value) error {
	return t.Write(table, partKey, key, val, false)
}

// Delete is Write marking removal.
func (t *Txn) Delete(table *Table, partKey, key string) error {
	return t.Write(table, partKey, key, "", true)
}

// Commit runs the NDB commit protocol (§II-B2, Figure 2): a linear 2PC
// pass per commit train across the train's replica chain, committing at the
// primary on the reverse pass. Staged writes that share a replica chain
// (same partition node group, same replica order — or the same full chain
// for fully replicated rows) ride one train, so a multi-row transaction on
// one chain costs one Prepare/Commit/Complete pass carrying the combined
// payload instead of one chain per row. For Read Backup tables the client
// Ack is delayed until every backup has acknowledged the Complete phase
// (§IV-A3); for fully replicated tables the chain covers every datanode.
// Read-only transactions release their locks and return immediately.
func (t *Txn) Commit() error {
	if t.done {
		return ErrAborted
	}
	cfg := &t.c.cfg
	if len(t.writes) == 0 {
		t.releaseAll()
		t.finish(true)
		// Reply to the API client.
		t.tc.send(t.p)
		if !t.c.net.TravelDeferred(t.p, t.tc.Node, t.origin, ackSize, cfg.RPCTimeout) {
			return ErrNodeUnavailable
		}
		return nil
	}

	trains := t.buildTrains()
	if obs := t.c.obs; obs != nil {
		for _, ws := range trains {
			obs.commitTrains.Add(1)
			obs.trainRows.Observe(time.Duration(len(ws)))
		}
	}
	results := t.c.getErrMbx()
	single := len(trains) == 1
	if !single {
		// Trains commit in parallel; sub-processes must start from the
		// transaction's current effective instant.
		t.p.Flush()
	}
	for _, ws := range trains {
		ws := ws
		// The TC charges one commit-row job per row regardless of how the
		// rows are packed into trains.
		for range ws {
			t.tc.use(t.p, TC, cfg.Costs.TCCommitRow)
		}
		if single {
			// A one-train transaction is trivially atomic: the chain applies
			// every row at its commit point, as in Figure 2.
			err := t.commitTrain(t.p, ws, readBackupFor(ws[0]), true)
			t.p.Flush()
			results.Send(err)
			continue
		}
		// Worker arms inherit the transaction's span so their network hops
		// and phase timings stay attributed to the operation.
		t.c.dispatch(fanTask{
			span:       t.p.Span(),
			errRun:     func(p *sim.Proc) error { return t.commitTrain(p, ws, readBackupFor(ws[0]), false) },
			errResults: results,
		})
	}
	var firstErr error
	for range trains {
		if err := results.Recv(t.p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.c.putErrMbx(results)
	if firstErr != nil {
		// Atomic abort: with multi-train commits the staged writes were not
		// applied (applyNow=false above), so a failure in any train —
		// e.g. a partition landing mid-2PC — leaves no half-commit.
		t.releaseAll()
		t.finish(false)
		return firstErr
	}
	if !single {
		// Atomic commit point: every train prepared and committed its
		// replicas; the staged rows of the whole transaction become
		// visible at one instant, under the locks still held.
		t.p.Flush()
		for i := range t.writes {
			w := &t.writes[i]
			w.part.apply(w, t.id)
		}
	}
	t.releaseAll()
	t.finish(true)
	// Ack to the API client (message 10, or 14 under Read Backup — the
	// timing difference is already inside commitTrain).
	t.tc.send(t.p)
	if !t.c.net.TravelDeferred(t.p, t.tc.Node, t.origin, ackSize, cfg.RPCTimeout) {
		return ErrNodeUnavailable
	}
	return nil
}

func readBackupFor(w *writeOp) bool { return w.part.table.opts.ReadBackup }

// buildTrains buckets the staged writes by identical replica chain,
// preserving first-appearance order so the packing is deterministic. Two
// rows share a train iff their partitions resolve to the same replica
// datanodes in the same order (fully replicated rows compare their full
// chain) and agree on Read Backup — exactly the condition under which one
// linear 2PC pass can carry both. With write batching disabled every row is
// its own single-row train, which is the old one-chain-per-row protocol.
func (t *Txn) buildTrains() [][]*writeOp {
	if t.c.cfg.DisableWriteBatching || len(t.writes) == 1 {
		out := make([][]*writeOp, len(t.writes))
		for i := range t.writes {
			out[i] = []*writeOp{&t.writes[i]}
		}
		return out
	}
	var out [][]*writeOp
	slot := make(map[string]int)
	for i := range t.writes {
		w := &t.writes[i]
		key := t.chainKey(w)
		j, ok := slot[key]
		if !ok {
			j = len(out)
			slot[key] = j
			out = append(out, nil)
		}
		out[j] = append(out[j], w)
	}
	return out
}

// chainKey fingerprints the replica chain a write's 2PC pass would walk,
// plus its Read Backup mode (trains must agree on whether the Complete
// phase is awaited).
func (t *Txn) chainKey(w *writeOp) string {
	chain := w.part.replicas()
	if w.part.table.opts.FullyReplicated {
		chain = t.fullChain(w.part)
	}
	var b strings.Builder
	if readBackupFor(w) {
		b.WriteByte('r')
	}
	for _, dn := range chain {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(dn.Index))
	}
	return b.String()
}

// commitTrain runs the linear 2PC of Figure 2 for one train of same-chain
// rows, returning when the TC may count the train as committed (after
// Committed, or after all Completed messages under Read Backup). The pass
// structure is per train — one message per hop per phase, carrying the
// combined row payload — while the LDM work and REDO volume stay per row.
// applyNow selects whether the train applies its rows itself at the commit
// point (single-train transactions) or leaves the staged writes for the
// caller to apply once every train of the transaction has succeeded
// (multi-train atomicity under mid-flight failures).
func (t *Txn) commitTrain(p *sim.Proc, ws []*writeOp, readBackup, applyNow bool) error {
	cfg := &t.c.cfg
	part := ws[0].part
	chain := part.replicas()
	if len(chain) == 0 {
		return ErrNodeUnavailable
	}
	if part.table.opts.FullyReplicated {
		// §IV-A3: linear 2PC over the primary replicas of the changed row
		// on all node groups (every datanode holds the data).
		chain = t.fullChain(part)
	}
	for _, dn := range chain {
		if !dn.Alive() {
			return ErrNodeUnavailable
		}
	}
	trainBytes := reqSize
	for _, w := range ws {
		trainBytes += w.part.table.rowSize
	}

	// Phase instrumentation: each 2PC pass gets a child span (detailed
	// mode only) and a registry timing. Hops made while a phase span is
	// installed are attributed to both the phase and the operation's root.
	obs := t.c.obs
	parent := p.Span()
	var phase *trace.Span
	var phaseIdx int
	phaseStart := p.EffNow()
	beginPhase := func(idx int) {
		phaseIdx = idx
		phase = parent.Child(phaseNames[idx], phaseStart)
		if phase != nil {
			p.SetSpan(phase)
		}
	}
	endPhase := func() {
		now := p.EffNow()
		phase.Finish(now)
		if obs != nil {
			obs.phase[phaseIdx].Observe(now - phaseStart)
		}
		phase = nil
		phaseStart = now
	}
	defer func() {
		// Error returns leave the active phase open; close it so sink
		// trees render consistently, and restore the caller's span.
		phase.Finish(p.EffNow())
		p.SetSpan(parent)
	}()

	// Prepare pass: TC -> primary -> backups -> ... ; last replica answers
	// Prepared to the TC. One message per hop carries the whole train's
	// payload; each replica prepares (and REDO-logs) every row of the train.
	beginPhase(phasePrepare)
	prev := t.tc
	for _, dn := range chain {
		prev.send(p)
		if !t.c.net.TravelDeferred(p, prev.Node, dn.Node, trainBytes, cfg.RPCTimeout) {
			return ErrNodeUnavailable
		}
		dn.recv(p)
		for _, w := range ws {
			dn.use(p, LDM, cfg.Costs.LDMPrepare)
			dn.redoPending += int64(w.part.table.rowSize)
		}
		prev = dn
	}
	last := chain[len(chain)-1]
	last.send(p)
	if !t.c.net.TravelDeferred(p, last.Node, t.tc.Node, ackSize, cfg.RPCTimeout) {
		return ErrNodeUnavailable
	}
	t.tc.recv(p)
	endPhase()
	// Commit pass in reverse order: the primary replica (chain head) is the
	// commit point; it applies the mutation and releases the row locks.
	beginPhase(phaseCommit)
	prev = t.tc
	for i := len(chain) - 1; i >= 0; i-- {
		dn := chain[i]
		prev.send(p)
		if !t.c.net.TravelDeferred(p, prev.Node, dn.Node, ackSize, cfg.RPCTimeout) {
			return ErrNodeUnavailable
		}
		dn.recv(p)
		for range ws {
			dn.use(p, LDM, cfg.Costs.LDMCommit)
		}
		prev = dn
	}
	// Synchronize with the virtual clock before the commit point: the
	// primary applies the train's mutations and releases their row locks at
	// the instant the Commit message actually reaches it. Multi-train
	// transactions defer the apply to the transaction-wide commit point.
	p.Flush()
	if applyNow {
		for _, w := range ws {
			w.part.apply(w, t.id)
		}
	}
	chain[0].send(p)
	if !t.c.net.TravelDeferred(p, chain[0].Node, t.tc.Node, ackSize, cfg.RPCTimeout) {
		return ErrNodeUnavailable
	}
	t.tc.recv(p)
	endPhase()
	// Complete pass: release backup-side resources. Without Read Backup
	// the TC does not wait for the Completed responses (the paper's short
	// staleness window on backups); with Read Backup it must (§IV-A3).
	backups := chain[1:]
	if len(backups) == 0 {
		return nil
	}
	if !readBackup {
		// Fire-and-forget Completes go through Send (no process carries
		// them), so simnet can only count them in the global net.* metrics.
		// Record them on the active span too — zero wire time, the Travel
		// convention, since they are off the Ack's critical path — so per-op
		// attribution and the commit-phase profile stop under-counting.
		for _, dn := range backups {
			t.tc.send(p)
			p.Span().RecordHop(simnet.HopClassOf(t.tc.Node, dn.Node), ackSize, 0)
			t.c.net.Send(t.tc.Node, dn.Node, ackSize, "complete")
		}
		return nil
	}
	beginPhase(phaseComplete)
	donec := t.c.getBoolMbx()
	// The Complete fan-out runs as pooled worker arms; synchronize them
	// with the parent's effective instant first.
	p.Flush()
	// Capture the span the fan-out should charge: the complete-phase span
	// when detailed, else the transaction's span.
	fanSpan := phase
	if fanSpan == nil {
		fanSpan = parent
	}
	for _, dn := range backups {
		dn := dn
		t.tc.send(p)
		t.c.dispatch(fanTask{
			span: fanSpan,
			boolRun: func(cp *sim.Proc) bool {
				ok := t.c.net.TravelDeferred(cp, t.tc.Node, dn.Node, ackSize, cfg.RPCTimeout)
				if ok {
					dn.recv(cp)
					dn.use(cp, LDM, cfg.Costs.LDMCommit)
					dn.send(cp)
					ok = t.c.net.TravelDeferred(cp, dn.Node, t.tc.Node, ackSize, cfg.RPCTimeout)
				}
				return ok
			},
			boolResults: donec,
		})
	}
	allOK := true
	for range backups {
		if !donec.Recv(p) {
			allOK = false
		}
	}
	t.c.putBoolMbx(donec)
	t.tc.recv(p)
	if !allOK {
		return ErrNodeUnavailable
	}
	endPhase()
	return nil
}

// fullChain returns the commit chain for a fully replicated partition: the
// owning group's replicas first (primary at the head), then one primary per
// other node group.
func (t *Txn) fullChain(part *Partition) []*DataNode {
	reps := part.replicas()
	// Copy: replicas() is memoized and must not be appended to.
	chain := make([]*DataNode, len(reps), len(reps)+len(t.c.groups)-1)
	copy(chain, reps)
	for g := range t.c.groups {
		if g == part.group {
			continue
		}
		for _, dn := range t.c.groups[g] {
			if dn.Alive() {
				chain = append(chain, dn)
				break
			}
		}
	}
	return chain
}

// Abort releases all locks and discards staged writes.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.releaseAll()
	t.finish(false)
}

// failAbort aborts and reports the unavailable-node error.
func (t *Txn) failAbort() error {
	t.Abort()
	return ErrNodeUnavailable
}

// abortLocked aborts after a lock acquisition failure.
func (t *Txn) abortLocked() {
	t.releaseAll()
	t.finish(false)
}

func (t *Txn) finish(committed bool) {
	t.done = true
	delete(t.c.activeOps, t.id)
	if committed {
		t.c.Stats.Committed++
	} else {
		t.c.Stats.Aborted++
	}
}

// lockRow acquires a row lock with the deadlock-detection timeout, on the
// transaction's own process.
func (t *Txn) lockRow(part *Partition, pk, key string, mode LockMode) error {
	return t.lockRowOn(t.p, part, pk, key, mode)
}

// lockRowOn is lockRow on an explicit process: WriteBatch's concurrent
// group sub-processes block on their own clocks while sharing the
// transaction's lock set (appends are safe under the cooperative kernel —
// exactly one process runs at a time). The process's deferred delay is
// flushed first so the lock is taken at the correct virtual instant.
func (t *Txn) lockRowOn(p *sim.Proc, part *Partition, pk, key string, mode LockMode) error {
	p.Flush()
	r := part.getRow(pk, key)
	obs := t.c.obs
	if obs != nil {
		obs.lockAcq.Add(1)
	}
	mb := r.lock.acquire(t.c.env, t.id, mode)
	if mb == nil {
		t.locks = append(t.locks, lockRef{part: part, pk: pk, key: key})
		return nil
	}
	// Contended: park until granted or the deadlock-detection timeout.
	// The blocker is identified now, while it still holds the lock (by the
	// time the wait resolves it may have finished and vanished).
	tr := t.c.tracer
	observed := tr.Subscribed()
	var holderOp string
	if observed {
		holderOp = t.c.opFor(r.lock.blockerOf(t.id)) // "(unknown)" for 0
	}
	start := p.Now()
	ls := p.Span().Child("lock_wait", start)
	_, ok := mb.RecvTimeout(p, t.c.cfg.LockTimeout)
	wait := p.Now() - start
	if obs != nil {
		obs.lockWait.Observe(wait)
	}
	if observed {
		tr.Emit(trace.Event{Kind: trace.LockWait, At: p.Now(), Table: part.table.name, Holder: holderOp,
			Op: t.c.opFor(t.id), Exclusive: mode == LockExclusive, Dur: wait, Failed: !ok})
	}
	if !ok {
		ls.SetAttr("timeout", "true")
		ls.Finish(p.Now())
		r.lock.removeWaiter(t.id)
		// The grant may have raced the timeout within the same instant.
		if _, held := r.lock.holders[t.id]; held {
			r.lock.release(t.id)
			part.cleanRow(pk, key, r)
		}
		return ErrLockTimeout
	}
	ls.Finish(p.Now())
	t.locks = append(t.locks, lockRef{part: part, pk: pk, key: key})
	return nil
}

// releaseAll releases every lock the transaction holds.
func (t *Txn) releaseAll() {
	for _, lr := range t.locks {
		if r, ok := lr.part.rows[lr.pk][lr.key]; ok {
			r.lock.release(t.id)
			lr.part.cleanRow(lr.pk, lr.key, r)
		}
	}
	t.locks = nil
}

// scanPrefix returns committed rows of one partition-key bucket with the
// given key prefix, key-sorted.
func (p *Partition) scanPrefix(pk, prefix string) []KV {
	bucket := p.rows[pk]
	out := make([]KV, 0, len(bucket))
	for k, r := range bucket {
		if r.exists && strings.HasPrefix(k, prefix) {
			out = append(out, KV{Key: k, Val: r.val})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// committed returns the committed value of a row.
func (p *Partition) committed(pk, key string) (Value, bool) {
	r, ok := p.rows[pk][key]
	if !ok || !r.exists {
		return nil, false
	}
	return r.val, true
}

// getRow returns the row, creating a placeholder for lock acquisition if
// the row does not exist yet (insert path).
func (p *Partition) getRow(pk, key string) *row {
	bucket, ok := p.rows[pk]
	if !ok {
		bucket = make(map[string]*row)
		p.rows[pk] = bucket
	}
	r, ok := bucket[key]
	if !ok {
		r = &row{}
		bucket[key] = r
	}
	return r
}

// apply makes a staged write the committed value, stamped with the
// current global checkpoint epoch.
func (p *Partition) apply(w *writeOp, txn uint64) {
	r := p.getRow(w.pk, w.key)
	if w.del {
		r.exists = false
		r.val = nil
	} else {
		r.exists = true
		r.val = w.val
	}
	r.epoch = p.table.c.gcpEpoch
	r.lock.release(txn)
	p.cleanRow(w.pk, w.key, r)
}

// cleanRow drops placeholder rows that never materialized and carry no
// lock state, bounding memory.
func (p *Partition) cleanRow(pk, key string, r *row) {
	if !r.exists && len(r.lock.holders) == 0 && len(r.lock.waiters) == 0 {
		delete(p.rows[pk], key)
	}
}
