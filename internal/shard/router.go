// Package shard routes the namespace across N independent NDB clusters.
//
// The single-cluster deployments of the paper saturate once the NDB
// datanodes run out of CPU (Figure 10): every metadata operation, however
// well batched, lands on the same replica chains. The router in this
// package is the way past that plateau (ROADMAP item 2): the namespace is
// hash-partitioned across N fully independent clusters — each with its own
// node groups, partitions, replica chains, and global checkpoints — and
// every transaction that touches a single shard runs on the existing
// single-cluster fast path, byte for byte. Only the rare operation that
// must mutate rows on two shards (a rename across the hash boundary) pays
// for coordination, through an ordered two-cluster commit with a durable
// intent record (intent.go).
//
// The routing function is deterministic and stateless: a row lives on the
// shard given by the FNV-64a hash of its partition key, modulo N. Because
// the namenode's partition key for an inode row is the parent directory's
// id (with root children scattered by name, mirroring partKeyOf), this is
// hash-of-parent routing — all children of a directory, and with them
// every list/scan and parent-child lock pair, stay on one shard. Subtree
// pinning overrides the hash per partition key: pinning a directory's key
// pins its children, and the namenode inherits the pin onto directories
// created below it, so whole subtrees can be kept on one shard.
//
// With one cluster the router degenerates to the identity: no hashing, no
// extra messages, no extra RNG draws — a Shards=1 deployment is
// indistinguishable from an unsharded one, which the golden suites pin.
package shard

import (
	"fmt"
	"time"

	"hopsfscl/internal/ndb"
	"hopsfscl/internal/trace"
)

// Router maps partition keys to shards and owns the cross-shard commit
// machinery. It is built once per deployment, after the clusters and
// before the tables.
type Router struct {
	clusters []*ndb.Cluster
	n        int

	// pins overrides the hash per partition key (subtree pinning). nil
	// until the first Pin, so the routing fast path is one nil check.
	pins map[string]int

	// tracer receives multi-shard routers' ShardBegin events.
	tracer *trace.Tracer
	obs    *routerObs

	// intents[s] is shard s's durable intent table (EnableIntents); nil
	// for single-shard routers, which never need the cross-shard path.
	intents []*ndb.Table
	// intentSeq numbers intent records; combined with the origin namenode
	// it is unique per deployment.
	intentSeq uint64

	// Conversion buffers of the batched wrappers (txn.go): per-shard item
	// lists and the positions they scatter back to.
	writes pool[ndb.BatchWrite]
	gets   pool[ndb.BatchGet]
	scans  pool[ndb.BatchScan]
	idx    pool[int]
}

// routerObs caches the registry handles of the router's own metrics.
type routerObs struct {
	// local counts commits that never left one shard; cross counts
	// commits that ran the two-cluster intent protocol, and crossTime is
	// their end-to-end commit latency (the cross-shard rename cost the
	// shardsweep experiment reports separately).
	local     *trace.Counter
	cross     *trace.Counter
	crossTime *trace.Timing
	// crossAborts counts cross-shard commits that aborted cleanly before
	// the intent became durable; crossIndet counts the ones that returned
	// an indeterminate error with the intent left for the sweeper.
	crossAborts *trace.Counter
	crossIndet  *trace.Counter
	// intentsResolved / intentsRolledBack count sweeper outcomes: legs
	// replayed forward vs. undone (rename put blocked, value re-homed).
	intentsResolved   *trace.Counter
	intentsRolledBack *trace.Counter
}

// NewRouter builds a router over the given clusters, in shard order.
func NewRouter(clusters []*ndb.Cluster) (*Router, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one cluster")
	}
	return &Router{clusters: clusters, n: len(clusters)}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Cluster returns shard s's cluster.
func (r *Router) Cluster(s int) *ndb.Cluster { return r.clusters[s] }

// Clusters returns all clusters in shard order. Callers must not mutate
// the slice.
func (r *Router) Clusters() []*ndb.Cluster { return r.clusters }

// SetTracer registers the router's shard.* metrics and, on multi-shard
// routers, emits a ShardBegin event per sub-transaction begin.
func (r *Router) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	r.tracer = tr
	reg := tr.Registry()
	r.obs = &routerObs{
		local:             reg.Counter("shard.txn.local"),
		cross:             reg.Counter("shard.txn.cross"),
		crossTime:         reg.Timing("shard.txn.cross_commit"),
		crossAborts:       reg.Counter("shard.txn.cross_aborts"),
		crossIndet:        reg.Counter("shard.txn.cross_indeterminate"),
		intentsResolved:   reg.Counter("shard.intents.resolved"),
		intentsRolledBack: reg.Counter("shard.intents.rolled_back"),
	}
}

// began emits a sub-transaction begin on shard s. Single-shard routers
// emit nothing, keeping unsharded event streams unchanged.
func (r *Router) began(now time.Duration, s int) {
	if r.n > 1 && r.tracer.Subscribed() {
		r.tracer.Emit(trace.Event{Kind: trace.ShardBegin, At: now, Index: s})
	}
}

// fnv64 is the FNV-64a hash of s, inlined so routing allocates nothing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ShardOfKey returns the shard owning partition key pk: the pin override
// if one is set, else hash-of-key modulo the shard count.
func (r *Router) ShardOfKey(pk string) int {
	if r.n == 1 {
		return 0
	}
	if r.pins != nil {
		if s, ok := r.pins[pk]; ok {
			return s
		}
	}
	return int(fnv64(pk) % uint64(r.n))
}

// Pin overrides the hash for one partition key. Pinning a directory's
// partition key (its inode id) moves all its children — and every scan and
// lock against them — to the given shard; the namenode inherits pins onto
// directories created underneath, which makes the override subtree-deep.
// Pins must be installed before rows are written under the key: the router
// never migrates existing rows.
func (r *Router) Pin(pk string, s int) error {
	if s < 0 || s >= r.n {
		return fmt.Errorf("shard: pin %q to shard %d of %d", pk, s, r.n)
	}
	if r.pins == nil {
		r.pins = make(map[string]int)
	}
	r.pins[pk] = s
	return nil
}

// Unpin removes a pin override.
func (r *Router) Unpin(pk string) {
	delete(r.pins, pk)
}

// Pinned returns the pin override for pk, if any.
func (r *Router) Pinned(pk string) (int, bool) {
	s, ok := r.pins[pk]
	return s, ok
}

// TableSet is one logical table materialized on every shard. All routed
// access goes through a Txn; For/At expose the per-shard tables for
// direct-seeding and audits.
type TableSet struct {
	r    *Router
	tabs []*ndb.Table
}

// NewTableSet creates the table on every cluster and returns the set.
func (r *Router) NewTableSet(name string, rowSize int, opts ndb.TableOptions) *TableSet {
	tabs := make([]*ndb.Table, r.n)
	for i, c := range r.clusters {
		tabs[i] = c.CreateTable(name, rowSize, opts)
	}
	return &TableSet{r: r, tabs: tabs}
}

// Wrap adopts existing per-shard tables (one per cluster, in shard order)
// as a set — how the namenode re-homes tables created before the router
// was attached.
func (r *Router) Wrap(tabs []*ndb.Table) (*TableSet, error) {
	if len(tabs) != r.n {
		return nil, fmt.Errorf("shard: wrap %d tables across %d shards", len(tabs), r.n)
	}
	return &TableSet{r: r, tabs: tabs}, nil
}

// Router returns the set's router.
func (ts *TableSet) Router() *Router { return ts.r }

// Shard returns the shard owning partition key pk.
func (ts *TableSet) Shard(pk string) int { return ts.r.ShardOfKey(pk) }

// For returns the shard-local table owning partition key pk.
func (ts *TableSet) For(pk string) *ndb.Table { return ts.tabs[ts.r.ShardOfKey(pk)] }

// At returns shard s's table.
func (ts *TableSet) At(s int) *ndb.Table { return ts.tabs[s] }

// ForEachCommitted visits every committed row of the logical table, shard
// by shard in shard order (key-sorted within each shard) — the audit-path
// iteration, reading storage state directly.
func (ts *TableSet) ForEachCommitted(fn func(partKey, key string, val ndb.Value)) {
	for _, t := range ts.tabs {
		t.ForEachCommitted(fn)
	}
}

// shardOfTable maps a table pointer back to its shard index; batch items
// carry resolved *ndb.Table values, and the shard count is small enough
// that a linear scan beats any map.
func (r *Router) shardOfTable(t *ndb.Table) int {
	c := t.Cluster()
	for i, cl := range r.clusters {
		if cl == c {
			return i
		}
	}
	return 0
}

// pool is a free-list of buffers rented for one wrapper call and returned
// before it exits, so steady-state batched operations allocate nothing
// beyond what the unsharded path did. The simulation kernel is
// cooperative, so rent and put need no locking — the same discipline as
// the cluster's scratch pools.
type pool[T any] struct {
	free [][]T
}

// rent returns an empty buffer with room for n items.
func (p *pool[T]) rent(n int) []T {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		if cap(b) >= n {
			return b
		}
	}
	return make([]T, 0, n+8)
}

// put returns a buffer, dropping the references it holds.
func (p *pool[T]) put(b []T) {
	clear(b[:cap(b)])
	p.free = append(p.free, b[:0])
}
