package shard

import (
	"sort"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// Txn is a routed transaction: a thin wrapper that lazily opens one
// ndb.Txn per shard the operation actually touches. The overwhelmingly
// common case — every row of the operation hashes to one shard — runs on
// exactly one sub-transaction, so the single-cluster fast path (WriteBatch
// trains, batched reads, commit coalescing) is untouched per shard, and a
// one-shard router forwards every call verbatim.
type Txn struct {
	r      *Router
	p      *sim.Proc
	origin *simnet.Node
	domain simnet.ZoneID

	// single is the only sub-transaction while the operation stays on one
	// shard; multi (indexed by shard, nil entries unopened) replaces it
	// the moment a second shard is touched.
	single      *ndb.Txn
	singleShard int
	multi       []*ndb.Txn
	done        bool
}

// Begin opens a routed transaction, eagerly starting the sub-transaction
// on the hint's shard — the same begin, against the same cluster, that an
// unsharded namenode would issue, so the message sequence of a one-shard
// deployment is unchanged.
func (r *Router) Begin(p *sim.Proc, origin *simnet.Node, domain simnet.ZoneID, hintTables *TableSet, hint string) (*Txn, error) {
	s := r.ShardOfKey(hint)
	sub, err := r.clusters[s].Begin(p, origin, domain, hintTables.tabs[s], hint)
	if err != nil {
		return nil, err
	}
	r.began(p.Now(), s)
	return &Txn{r: r, p: p, origin: origin, domain: domain, single: sub, singleShard: s}, nil
}

// subFor returns the sub-transaction for shard s, beginning it on first
// touch (hinted by the partition key that caused the touch).
func (t *Txn) subFor(s int, ts *TableSet, pk string) (*ndb.Txn, error) {
	if t.multi == nil {
		if s == t.singleShard {
			return t.single, nil
		}
		t.multi = make([]*ndb.Txn, t.r.n)
		t.multi[t.singleShard] = t.single
	}
	if sub := t.multi[s]; sub != nil {
		return sub, nil
	}
	sub, err := t.r.clusters[s].Begin(t.p, t.origin, t.domain, ts.tabs[s], pk)
	if err != nil {
		return nil, err
	}
	t.multi[s] = sub
	t.r.began(t.p.Now(), s)
	return sub, nil
}

// Annotate sets an attribute on the operation's current span.
func (t *Txn) Annotate(key, value string) {
	t.p.Span().SetAttr(key, value)
}

// ReadCommitted reads a row's committed value without locking.
func (t *Txn) ReadCommitted(ts *TableSet, partKey, key string) (ndb.Value, bool, error) {
	s := ts.r.ShardOfKey(partKey)
	sub, err := t.subFor(s, ts, partKey)
	if err != nil {
		return nil, false, err
	}
	return sub.ReadCommitted(ts.tabs[s], partKey, key)
}

// ReadLocked reads a row under a lock.
func (t *Txn) ReadLocked(ts *TableSet, partKey, key string, mode ndb.LockMode) (ndb.Value, bool, error) {
	s := ts.r.ShardOfKey(partKey)
	sub, err := t.subFor(s, ts, partKey)
	if err != nil {
		return nil, false, err
	}
	return sub.ReadLocked(ts.tabs[s], partKey, key, mode)
}

// Write stages an insert/update/delete under an exclusive lock.
func (t *Txn) Write(ts *TableSet, partKey, key string, val ndb.Value, del bool) error {
	s := ts.r.ShardOfKey(partKey)
	sub, err := t.subFor(s, ts, partKey)
	if err != nil {
		return err
	}
	return sub.Write(ts.tabs[s], partKey, key, val, del)
}

// Insert stages an insert/update.
func (t *Txn) Insert(ts *TableSet, partKey, key string, val ndb.Value) error {
	return t.Write(ts, partKey, key, val, false)
}

// Delete stages a delete.
func (t *Txn) Delete(ts *TableSet, partKey, key string) error {
	return t.Write(ts, partKey, key, nil, true)
}

// ScanPrefix scans one partition for keys with the prefix.
func (t *Txn) ScanPrefix(ts *TableSet, partKey, prefix string) ([]ndb.KV, error) {
	s := ts.r.ShardOfKey(partKey)
	sub, err := t.subFor(s, ts, partKey)
	if err != nil {
		return nil, err
	}
	return sub.ScanPrefix(ts.tabs[s], partKey, prefix)
}

// ScanTablePrefix scans every partition of the logical table — on every
// shard — for keys with the prefix. Multi-shard results are re-sorted by
// key so the merged order is independent of shard count.
func (t *Txn) ScanTablePrefix(ts *TableSet, prefix string) ([]ndb.KV, error) {
	if t.r.n == 1 {
		sub, err := t.subFor(0, ts, "")
		if err != nil {
			return nil, err
		}
		return sub.ScanTablePrefix(ts.tabs[0], prefix)
	}
	var out []ndb.KV
	for s := 0; s < t.r.n; s++ {
		sub, err := t.subFor(s, ts, "")
		if err != nil {
			return nil, err
		}
		kvs, err := sub.ScanTablePrefix(ts.tabs[s], prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, kvs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// BatchGet names one row of a routed ReadBatch.
type BatchGet struct {
	Table   *TableSet
	PartKey string
	Key     string
}

// BatchScan names one prefix scan of a routed ScanBatch.
type BatchScan struct {
	Table   *TableSet
	PartKey string
	Prefix  string
}

// BatchWrite names one row of a routed WriteBatch.
type BatchWrite struct {
	Table   *TableSet
	PartKey string
	Key     string
	Val     ndb.Value
	Del     bool
}

// route names the shard-independent placement of a routed batch item;
// local is its form on shard s.
func (g BatchGet) route() (*TableSet, string) { return g.Table, g.PartKey }
func (g BatchGet) local(s int) ndb.BatchGet {
	return ndb.BatchGet{Table: g.Table.tabs[s], PartKey: g.PartKey, Key: g.Key}
}

func (g BatchScan) route() (*TableSet, string) { return g.Table, g.PartKey }
func (g BatchScan) local(s int) ndb.BatchScan {
	return ndb.BatchScan{Table: g.Table.tabs[s], PartKey: g.PartKey, Prefix: g.Prefix}
}

func (w BatchWrite) route() (*TableSet, string) { return w.Table, w.PartKey }
func (w BatchWrite) local(s int) ndb.BatchWrite {
	return ndb.BatchWrite{Table: w.Table.tabs[s], PartKey: w.PartKey, Key: w.Key, Val: w.Val, Del: w.Del}
}

// batchItem is a routed batch item converting to the ndb item L.
type batchItem[L any] interface {
	route() (*TableSet, string)
	local(s int) L
}

// splitBatch runs one routed batch: every touched shard's rows go to run
// as one ndb batch on that shard's sub-transaction, and the results come
// back positionally. When all rows hash to one shard this is a single run
// call, hinted by the first row. Otherwise shards run in shard order, each
// sub-transaction begun on first touch hinted by that shard's first row,
// and a failed sub-batch returns its error before anything is scattered.
func splitBatch[I batchItem[L], L, R any](t *Txn, items []I, bufs *pool[L], run func(*ndb.Txn, []L) ([]R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	r := t.r
	buf := bufs.rent(len(items))
	hintTS, hintPK := items[0].route()
	first := hintTS.Shard(hintPK)
	for _, it := range items {
		ts, pk := it.route()
		if ts.Shard(pk) != first {
			break
		}
		buf = append(buf, it.local(first))
	}
	if len(buf) == len(items) {
		sub, err := t.subFor(first, hintTS, hintPK)
		var res []R
		if err == nil {
			res, err = run(sub, buf)
		}
		bufs.put(buf)
		return res, err
	}
	bufs.put(buf)
	out := make([]R, len(items))
	for s := 0; s < r.n; s++ {
		sbuf := bufs.rent(len(items))
		idx := r.idx.rent(len(items))
		for i, it := range items {
			if ts, pk := it.route(); ts.Shard(pk) == s {
				sbuf = append(sbuf, it.local(s))
				idx = append(idx, i)
			}
		}
		var err error
		if len(idx) > 0 {
			hintTS, hintPK = items[idx[0]].route()
			var sub *ndb.Txn
			var res []R
			if sub, err = t.subFor(s, hintTS, hintPK); err == nil {
				res, err = run(sub, sbuf)
			}
			if err == nil {
				for j, i := range idx {
					out[i] = res[j]
				}
			}
		}
		bufs.put(sbuf)
		r.idx.put(idx)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadBatch reads many rows in one batched fan-out per touched shard,
// returning values positionally. When all rows hash to one shard — every
// batched resolution of a path, since child rows share the parent's
// partition key — this is a single ndb.ReadBatch, unchanged.
//
// The three batch wrappers are kept out of line: a generic shape
// instantiation called from another package carries no escape summary, so
// inlining them would move every caller's item slice to the heap.
//
//go:noinline
func (t *Txn) ReadBatch(gets []BatchGet) ([]ndb.BatchVal, error) {
	return splitBatch(t, gets, &t.r.gets, (*ndb.Txn).ReadBatch)
}

// ScanBatch runs many prefix scans in one batched fan-out per touched
// shard, returning result sets positionally.
//
//go:noinline
func (t *Txn) ScanBatch(scans []BatchScan) ([][]ndb.KV, error) {
	return splitBatch(t, scans, &t.r.scans, (*ndb.Txn).ScanBatch)
}

// WriteBatch stages all mutations, grouped per shard. A batch that stays
// on one shard — every create, delete, and same-directory rename — is one
// ndb.WriteBatch, staged and committed exactly as before.
//
//go:noinline
func (t *Txn) WriteBatch(items []BatchWrite) error {
	_, err := splitBatch(t, items, &t.r.writes, writeBatch)
	return err
}

// writeBatch adapts ndb.Txn.WriteBatch to splitBatch. Its results are
// zero-size, so they allocate nothing.
func writeBatch(sub *ndb.Txn, items []ndb.BatchWrite) ([]struct{}, error) {
	return make([]struct{}, len(items)), sub.WriteBatch(items)
}

// Abort aborts every open sub-transaction.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	if t.multi == nil {
		t.single.Abort()
		return
	}
	for _, sub := range t.multi {
		if sub != nil {
			sub.Abort()
		}
	}
}

// Commit commits the routed transaction. One touched shard — the fast
// path — is exactly one single-cluster commit. Several touched shards run
// the ordered intent protocol in intent.go.
func (t *Txn) Commit() error {
	if t.done {
		return ndb.ErrAborted
	}
	t.done = true
	if t.multi == nil {
		if t.r.obs != nil {
			t.r.obs.local.Add(1)
		}
		return t.single.Commit()
	}
	return t.commitCross()
}
