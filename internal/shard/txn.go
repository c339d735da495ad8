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

// ReadBatch reads many rows in one batched fan-out per touched shard,
// returning values positionally. When all rows hash to one shard — every
// batched resolution of a path, since child rows share the parent's
// partition key — this is a single ndb.ReadBatch, unchanged.
func (t *Txn) ReadBatch(gets []BatchGet) ([]ndb.BatchVal, error) {
	if len(gets) == 0 {
		return nil, nil
	}
	r := t.r
	buf := r.rentGets(len(gets))
	first := gets[0].Table.r.ShardOfKey(gets[0].PartKey)
	same := true
	for i := range gets {
		s := gets[i].Table.r.ShardOfKey(gets[i].PartKey)
		if s != first {
			same = false
			break
		}
		buf = append(buf, ndb.BatchGet{Table: gets[i].Table.tabs[s], PartKey: gets[i].PartKey, Key: gets[i].Key})
	}
	if same {
		sub, err := t.subFor(first, gets[0].Table, gets[0].PartKey)
		if err != nil {
			r.putGets(buf)
			return nil, err
		}
		vals, err := sub.ReadBatch(buf)
		r.putGets(buf)
		return vals, err
	}
	r.putGets(buf)
	out := make([]ndb.BatchVal, len(gets))
	for s := 0; s < r.n; s++ {
		sbuf := r.rentGets(len(gets))
		idx := r.rentIdx(len(gets))
		for i := range gets {
			if gets[i].Table.r.ShardOfKey(gets[i].PartKey) != s {
				continue
			}
			sbuf = append(sbuf, ndb.BatchGet{Table: gets[i].Table.tabs[s], PartKey: gets[i].PartKey, Key: gets[i].Key})
			idx = append(idx, i)
		}
		if len(sbuf) == 0 {
			r.putGets(sbuf)
			r.putIdx(idx)
			continue
		}
		sub, err := t.subFor(s, gets[idx[0]].Table, gets[idx[0]].PartKey)
		if err == nil {
			var vals []ndb.BatchVal
			vals, err = sub.ReadBatch(sbuf)
			for j, i := range idx {
				out[i] = vals[j]
			}
		}
		r.putGets(sbuf)
		r.putIdx(idx)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScanBatch runs many prefix scans in one batched fan-out per touched
// shard, returning result sets positionally.
func (t *Txn) ScanBatch(scans []BatchScan) ([][]ndb.KV, error) {
	if len(scans) == 0 {
		return nil, nil
	}
	r := t.r
	buf := r.rentScans(len(scans))
	first := scans[0].Table.r.ShardOfKey(scans[0].PartKey)
	same := true
	for i := range scans {
		s := scans[i].Table.r.ShardOfKey(scans[i].PartKey)
		if s != first {
			same = false
			break
		}
		buf = append(buf, ndb.BatchScan{Table: scans[i].Table.tabs[s], PartKey: scans[i].PartKey, Prefix: scans[i].Prefix})
	}
	if same {
		sub, err := t.subFor(first, scans[0].Table, scans[0].PartKey)
		if err != nil {
			r.putScans(buf)
			return nil, err
		}
		kvs, err := sub.ScanBatch(buf)
		r.putScans(buf)
		return kvs, err
	}
	r.putScans(buf)
	out := make([][]ndb.KV, len(scans))
	for s := 0; s < r.n; s++ {
		sbuf := r.rentScans(len(scans))
		idx := r.rentIdx(len(scans))
		for i := range scans {
			if scans[i].Table.r.ShardOfKey(scans[i].PartKey) != s {
				continue
			}
			sbuf = append(sbuf, ndb.BatchScan{Table: scans[i].Table.tabs[s], PartKey: scans[i].PartKey, Prefix: scans[i].Prefix})
			idx = append(idx, i)
		}
		if len(sbuf) == 0 {
			r.putScans(sbuf)
			r.putIdx(idx)
			continue
		}
		sub, err := t.subFor(s, scans[idx[0]].Table, scans[idx[0]].PartKey)
		if err == nil {
			var kvs [][]ndb.KV
			kvs, err = sub.ScanBatch(sbuf)
			for j, i := range idx {
				out[i] = kvs[j]
			}
		}
		r.putScans(sbuf)
		r.putIdx(idx)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteBatch stages all mutations, grouped per shard. A batch that stays
// on one shard — every create, delete, and same-directory rename — is one
// ndb.WriteBatch, staged and committed exactly as before.
func (t *Txn) WriteBatch(items []BatchWrite) error {
	if len(items) == 0 {
		return nil
	}
	r := t.r
	buf := r.rentWrites(len(items))
	first := items[0].Table.r.ShardOfKey(items[0].PartKey)
	same := true
	for i := range items {
		s := items[i].Table.r.ShardOfKey(items[i].PartKey)
		if s != first {
			same = false
			break
		}
		buf = append(buf, ndb.BatchWrite{Table: items[i].Table.tabs[s], PartKey: items[i].PartKey, Key: items[i].Key, Val: items[i].Val, Del: items[i].Del})
	}
	if same {
		sub, err := t.subFor(first, items[0].Table, items[0].PartKey)
		if err != nil {
			r.putWrites(buf)
			return err
		}
		err = sub.WriteBatch(buf)
		r.putWrites(buf)
		return err
	}
	r.putWrites(buf)
	for s := 0; s < r.n; s++ {
		sbuf := r.rentWrites(len(items))
		firstIdx := -1
		for i := range items {
			if items[i].Table.r.ShardOfKey(items[i].PartKey) != s {
				continue
			}
			if firstIdx < 0 {
				firstIdx = i
			}
			sbuf = append(sbuf, ndb.BatchWrite{Table: items[i].Table.tabs[s], PartKey: items[i].PartKey, Key: items[i].Key, Val: items[i].Val, Del: items[i].Del})
		}
		if firstIdx < 0 {
			r.putWrites(sbuf)
			continue
		}
		sub, err := t.subFor(s, items[firstIdx].Table, items[firstIdx].PartKey)
		if err == nil {
			err = sub.WriteBatch(sbuf)
		}
		r.putWrites(sbuf)
		if err != nil {
			return err
		}
	}
	return nil
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
