// Package namenode implements the HopsFS-CL metadata serving layer (paper
// §II-A2 and §IV-B): stateless metadata servers (NNs) that execute file
// system operations as transactions on the NDB metadata storage layer,
// using hierarchical (implicit) locking — row locks on the operated-on
// inodes, read-committed for the rest. It also implements the database-
// backed leader election of [28], extended to report each server's
// locationDomainId every round, and the AZ-aware client selection policy
// of §IV-B3.
package namenode

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/metrics"
	"hopsfscl/internal/ndb"
	"hopsfscl/internal/shard"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// File system errors.
var (
	// ErrNotFound means a path component does not exist.
	ErrNotFound = errors.New("namenode: no such file or directory")
	// ErrExists means the target already exists.
	ErrExists = errors.New("namenode: file exists")
	// ErrNotDir means a path component is not a directory.
	ErrNotDir = errors.New("namenode: not a directory")
	// ErrIsDir means the operation needs a file but found a directory.
	ErrIsDir = errors.New("namenode: is a directory")
	// ErrNotEmpty means a non-recursive delete hit a non-empty directory.
	ErrNotEmpty = errors.New("namenode: directory not empty")
	// ErrInvalidPath means the path is malformed.
	ErrInvalidPath = errors.New("namenode: invalid path")
	// ErrRetriesExhausted means the transaction kept aborting (overload,
	// failover in progress) beyond the retry budget.
	ErrRetriesExhausted = errors.New("namenode: transaction retries exhausted")
	// ErrNoNameNodes means no metadata server is reachable.
	ErrNoNameNodes = errors.New("namenode: no metadata servers available")
	// ErrCycle means a rename would move a directory under itself.
	ErrCycle = errors.New("namenode: rename would create a cycle")
)

// IsOutcomeError reports whether err is an expected application outcome
// (not-found, already-exists, namespace shape violations) rather than a
// system failure. Outcome errors count in per-op error tallies but not
// against the availability SLO: a correctly served "no such file" is the
// file system working, not failing.
func IsOutcomeError(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) ||
		errors.Is(err, ErrNotDir) || errors.Is(err, ErrIsDir) ||
		errors.Is(err, ErrNotEmpty) || errors.Is(err, ErrInvalidPath) ||
		errors.Is(err, ErrCycle)
}

// RootID is the inode id of "/".
const RootID uint64 = 1

// Config parameterizes the metadata serving layer.
type Config struct {
	// ReadBackup enables the Read Backup option on all metadata tables.
	// HopsFS-CL always sets it (§IV-A5); vanilla HopsFS does not.
	ReadBackup bool
	// SmallFileThreshold is the inline-in-NDB cutoff (§II-A3; 128 KB).
	SmallFileThreshold int64
	// NNCores is the CPU parallelism of each metadata server (paper VMs:
	// 32 vCPUs).
	NNCores int
	// ElectionRound is the leader-election heartbeat period ([28]; 2 s).
	ElectionRound time.Duration
	// RetryMax bounds transaction retries per operation.
	RetryMax int
	// RetryBackoff is the base backoff between retries (exponential with
	// jitter) — the paper's backpressure mechanism.
	RetryBackoff time.Duration
	// HintCacheSize bounds each NN's inode hint cache (path → inode id,
	// LRU). Zero or negative disables the cache.
	HintCacheSize int
	// DisableBatchedResolve forces the serial per-component path walk even
	// when the hint cache could prime a batched read — the ablation knob
	// for the resolution protocol.
	DisableBatchedResolve bool
	// Costs are the NN CPU service demands.
	Costs Costs
}

// Costs model the metadata server's CPU work per operation.
type Costs struct {
	// OpBase is charged for any operation (RPC handling, validation).
	OpBase time.Duration
	// PerComponent is charged per resolved path component.
	PerComponent time.Duration
	// PerListEntry is charged per directory entry returned.
	PerListEntry time.Duration
}

// DefaultConfig returns the paper-aligned defaults.
func DefaultConfig() Config {
	return Config{
		ReadBackup:         true,
		SmallFileThreshold: 128 << 10,
		NNCores:            32,
		ElectionRound:      2 * time.Second,
		RetryMax:           8,
		RetryBackoff:       2 * time.Millisecond,
		HintCacheSize:      64 << 10,
		Costs: Costs{
			OpBase:       25 * time.Microsecond,
			PerComponent: 4 * time.Microsecond,
			PerListEntry: 600 * time.Nanosecond,
		},
	}
}

// Inode is the stored metadata of a file or directory. Values stored in
// NDB are immutable; mutate by storing a modified copy.
type Inode struct {
	ID     uint64
	Parent uint64
	Name   string
	Dir    bool
	Size   int64
	Perm   uint16
	Owner  string
	Mtime  time.Duration
	// InlineSize is the byte count stored inline in NDB for small files.
	InlineSize int64
	// Blocks lists the block layer blocks of large files.
	Blocks []blocks.BlockID
	// QuotaNS/QuotaSS are the directory's namespace (inode count) and
	// storage-space (logical bytes) quota limits, 0 meaning unset. The
	// authoritative record lives in the quotas table; the inode carries a
	// copy so resolution sees quota'd ancestors without extra reads
	// (HopsFS's INodeAttributes pattern).
	QuotaNS int64
	QuotaSS int64
}

// QuotaRecord is the authoritative quota row of a directory (the "q" row in
// the quotas table, partitioned by the directory's inode id).
type QuotaRecord struct {
	NS int64 // namespace limit (files + directories), 0 = unset
	SS int64 // storage-space limit (logical bytes), 0 = unset
}

// QuotaUpdate is one asynchronous usage delta under a quota'd directory.
// HopsFS applies quota charges as append-only update rows folded in the
// background rather than read-modify-write on one hot row; usage is the sum
// of a directory's update rows ("u/..." keys in its quotas partition).
type QuotaUpdate struct {
	NS int64
	SS int64
}

// QuotaInfo is a directory's quota limits plus its accumulated usage.
type QuotaInfo struct {
	NS, SS         int64 // limits (0 = unset)
	UsedNS, UsedSS int64 // inodes created / bytes written under the quota
}

// Namesystem is the shared file system state: the NDB tables, the block
// layer, and the set of metadata servers.
type Namesystem struct {
	db       *ndb.Cluster
	blockMgr *blocks.Manager
	cfg      Config

	// router maps partition keys to shards. A fresh namesystem gets a
	// one-cluster router (the identity), so every table access below goes
	// through the shard layer unconditionally; AttachShards swaps in a
	// multi-cluster router before any namenode or traffic exists.
	router     *shard.Router
	inodes     *shard.TableSet
	election   *shard.TableSet
	smallfiles *shard.TableSet
	quotas     *shard.TableSet

	nns    []*NameNode
	idSeq  uint64
	bgStop bool

	// balanceEpoch forces clients to re-pick their server when the serving
	// set changes (Commission/Drain bump it); clients re-balance lazily at
	// their next operation.
	balanceEpoch int

	// tracer and obs attach the namesystem to a deployment's trace layer;
	// both are nil for uninstrumented deployments.
	tracer *trace.Tracer
	obs    *nnObs
}

// nnObs caches the namesystem's pre-registered metric handles.
type nnObs struct {
	// resolveHit counts operations whose path was fully primed from the
	// hint cache and verified; resolveMiss counts paths the cache could not
	// prime (serial walk from the start); resolveFallback counts batched
	// attempts that failed verification (stale hints) and re-walked.
	resolveHit      *trace.Counter
	resolveMiss     *trace.Counter
	resolveFallback *trace.Counter
	reg             *trace.Registry
}

// hit/miss/fallback record one resolve-cache outcome; nil-receiver-safe so
// uninstrumented deployments pay only the nil check.
func (o *nnObs) hit() {
	if o != nil {
		o.resolveHit.Add(1)
	}
}

func (o *nnObs) miss() {
	if o != nil {
		o.resolveMiss.Add(1)
	}
}

func (o *nnObs) fallback() {
	if o != nil {
		o.resolveFallback.Add(1)
	}
}

// SetTracer attaches the namesystem to a deployment's tracer: every client
// operation gets a root span, every transaction attempt a child span,
// paths and inode reads are emitted as events, and the resolve-cache
// counter family is registered. A nil tracer detaches.
func (ns *Namesystem) SetTracer(tr *trace.Tracer) {
	ns.tracer = tr
	reg := tr.Registry()
	if reg == nil {
		ns.obs = nil
		for _, nn := range ns.nns {
			nn.cache.size = nil
		}
		return
	}
	ns.obs = &nnObs{
		resolveHit:      reg.Counter("namenode.resolve_cache", "result", "hit"),
		resolveMiss:     reg.Counter("namenode.resolve_cache", "result", "miss"),
		resolveFallback: reg.Counter("namenode.resolve_cache", "result", "fallback"),
		reg:             reg,
	}
	for _, nn := range ns.nns {
		nn.cache.setGauge(ns.cacheSizeGauge(nn))
	}
}

// cacheSizeGauge returns the per-NN resolve-cache size gauge (nil when
// uninstrumented).
func (ns *Namesystem) cacheSizeGauge(nn *NameNode) *trace.Gauge {
	if ns.obs == nil {
		return nil
	}
	return ns.obs.reg.Gauge("namenode.resolve_cache.size", "nn", nn.Node.Name())
}

// Tracer returns the attached tracer (nil when uninstrumented).
func (ns *Namesystem) Tracer() *trace.Tracer { return ns.tracer }

// HealthStats reports the metadata tier's health signal at virtual instant
// now: live and expected NN counts, plus the mean CPU thread-pool
// utilization across live NNs since the previous call (each call advances
// the measurement window). When instrumented it also refreshes the per-NN
// namenode.util{nn=...} gauges, so the flight recorder and SLO engine see
// the same number.
func (ns *Namesystem) HealthStats(now time.Duration) (live, expected int, util float64) {
	var sum float64
	var n int
	for _, nn := range ns.nns {
		if nn.draining || nn.decom {
			// Drained servers left the serving target on purpose: they are
			// neither expected nor live, so scaling down does not read as
			// degradation.
			continue
		}
		expected++
		u := nn.health.Report(now)
		nn.health.Mark(now)
		if ns.obs != nil {
			ns.obs.reg.Gauge("namenode.util", "nn", nn.Node.Name()).Set(u)
		}
		if nn.Alive() {
			live++
			sum += u
			n++
		}
	}
	if n > 0 {
		util = sum / float64(n)
	}
	return live, expected, util
}

// NewNamesystem creates the metadata schema on db and seeds the root
// directory. blockMgr may be nil if only metadata operations are exercised
// (the paper's benchmarks use empty files for exactly this reason).
func NewNamesystem(db *ndb.Cluster, blockMgr *blocks.Manager, cfg Config) *Namesystem {
	ns := &Namesystem{
		db:       db,
		blockMgr: blockMgr,
		cfg:      cfg,
		idSeq:    RootID,
	}
	r, err := shard.NewRouter([]*ndb.Cluster{db})
	if err != nil {
		panic(err) // unreachable: one cluster is always a valid router
	}
	ns.router = r
	ns.createTables()
	ns.seedRoot()
	if blockMgr != nil {
		blockMgr.SetLeaderCheck(func() bool { return ns.Leader() != nil })
		blockMgr.SetReferencedCheck(ns.ReferencedBlocks)
	}
	return ns
}

// createTables creates the metadata schema on every shard of the current
// router.
func (ns *Namesystem) createTables() {
	cfg := ns.cfg
	// Inodes are partitioned by parent inode id (application defined
	// partitioning): all children of a directory live in one partition, so
	// listings are partition-pruned scans (§II-A1). Under the shard router
	// the same key also picks the cluster, so a directory's children — and
	// every parent/child lock pair — stay on one shard.
	ns.inodes = ns.router.NewTableSet("inodes", 256, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
	// The election table is tiny and read every round by every NN: fully
	// replicated for AZ-local reads. All its rows share one partition key,
	// so election traffic lands on a single shard regardless of N.
	ns.election = ns.router.NewTableSet("election", 64, ndb.TableOptions{
		ReadBackup:      cfg.ReadBackup,
		FullyReplicated: true,
	})
	// Small-file payloads live inline in NDB (§II-A3) in their own
	// wide-row table, partitioned by the owning file's inode id so the
	// data row survives renames untouched.
	ns.smallfiles = ns.router.NewTableSet("smallfiles", 4096, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
	// Quota rows: per quota'd directory one authoritative "q" record plus
	// append-only "u/..." usage updates, partitioned by directory id.
	ns.quotas = ns.router.NewTableSet("quotas", 64, ndb.TableOptions{ReadBackup: cfg.ReadBackup})
}

// AttachShards re-homes the namesystem onto a multi-cluster router. It must
// be called before any namenode is added or traffic served: the schema is
// re-created across all shards (the tables already created on the seed
// cluster are adopted as shard 0's) and the root directory is re-seeded
// through the routing function. The router's clusters must have the seed
// cluster first.
func (ns *Namesystem) AttachShards(r *shard.Router) error {
	if r.Cluster(0) != ns.db {
		return fmt.Errorf("namenode: AttachShards router must have the namesystem's cluster as shard 0")
	}
	if len(ns.nns) > 0 {
		return fmt.Errorf("namenode: AttachShards after namenodes were added")
	}
	adopt := func(ts *shard.TableSet) (*shard.TableSet, error) {
		t0 := ts.At(0)
		tabs := make([]*ndb.Table, r.Shards())
		tabs[0] = t0
		for i := 1; i < r.Shards(); i++ {
			tabs[i] = r.Cluster(i).CreateTable(t0.Name(), t0.RowSize(), t0.Options())
		}
		return r.Wrap(tabs)
	}
	var err error
	if ns.inodes, err = adopt(ns.inodes); err != nil {
		return err
	}
	if ns.election, err = adopt(ns.election); err != nil {
		return err
	}
	if ns.smallfiles, err = adopt(ns.smallfiles); err != nil {
		return err
	}
	if ns.quotas, err = adopt(ns.quotas); err != nil {
		return err
	}
	ns.router = r
	r.EnableIntents()
	// The root row was seeded on the single cluster; the routing function
	// may place its partition key elsewhere now.
	ns.seedRoot()
	return nil
}

// Router returns the namesystem's shard router (always non-nil; a fresh
// namesystem routes through a one-cluster identity router).
func (ns *Namesystem) Router() *shard.Router { return ns.router }

// PinSubtree pins a directory's children (by inode id) to a shard. The
// namenode inherits the pin onto directories created underneath, so the
// override is subtree-deep for namespace created after the pin. Pins must
// be installed before rows exist under the directory.
func (ns *Namesystem) PinSubtree(dirID uint64, s int) error {
	return ns.router.Pin(partKey(dirID), s)
}

// IdentityID implements shard.Identified: the inode id is the value's
// stable identity, letting the cross-shard intent resolver distinguish "my
// write already applied" from "another writer took this row" after a crash.
func (i *Inode) IdentityID() uint64 { return i.ID }

// ReferencedBlocks returns the set of block ids attached to any committed
// inode. The block layer's monitor uses it to reclaim orphans, and the
// chaos auditor uses it to verify namespace/block-layer agreement. It reads
// storage state directly (the leader NN's in-memory block map in HopsFS),
// bypassing the transaction path.
func (ns *Namesystem) ReferencedBlocks() map[blocks.BlockID]bool {
	out := make(map[blocks.BlockID]bool)
	ns.inodes.ForEachCommitted(func(_, _ string, val ndb.Value) {
		ino, ok := val.(*Inode)
		if !ok {
			return
		}
		for _, id := range ino.Blocks {
			out[id] = true
		}
	})
	return out
}

// seedRoot installs "/" directly in storage (bootstrap, before any traffic).
func (ns *Namesystem) seedRoot() {
	root := &Inode{ID: RootID, Parent: 0, Name: "", Dir: true, Perm: 0o755, Owner: "hdfs"}
	ndb.StoreDirect(ns.inodes.For(partKey(0)), partKey(0), inodeKey(0, ""), root)
}

// Seed installs directories and files directly into NDB storage, bypassing
// transactions — used to pre-build benchmark namespaces without warm-up
// traffic. Directories must be listed parents-first; all paths absolute.
func (ns *Namesystem) Seed(dirs, files []string) error {
	ids := map[string]uint64{"": RootID}
	place := func(path string, dir bool) error {
		comps, err := splitPath(path)
		if err != nil {
			return err
		}
		if len(comps) == 0 {
			return nil
		}
		parentPath := strings.Join(comps[:len(comps)-1], "/")
		parent, ok := ids[parentPath]
		if !ok {
			return fmt.Errorf("namenode: seed %q before its parent", path)
		}
		name := comps[len(comps)-1]
		ino := &Inode{
			ID:     ns.nextID(),
			Parent: parent,
			Name:   name,
			Dir:    dir,
			Perm:   0o755,
			Owner:  "hdfs",
		}
		ndb.StoreDirect(ns.inodes.For(partKeyOf(parent, name)), partKeyOf(parent, name), inodeKey(parent, name), ino)
		if dir {
			ids[strings.Join(comps, "/")] = ino.ID
		}
		return nil
	}
	for _, d := range dirs {
		if err := place(d, true); err != nil {
			return err
		}
	}
	for _, f := range files {
		if err := place(f, false); err != nil {
			return err
		}
	}
	return nil
}

// DB returns the metadata storage cluster.
func (ns *Namesystem) DB() *ndb.Cluster { return ns.db }

// BlockManager returns the block layer (may be nil).
func (ns *Namesystem) BlockManager() *blocks.Manager { return ns.blockMgr }

// Config returns the namesystem configuration.
func (ns *Namesystem) Config() Config { return ns.cfg }

// InodeTable exposes shard 0's inode table for experiments (Figure 14 reads
// the per-partition read counters; those experiments run unsharded).
func (ns *Namesystem) InodeTable() *ndb.Table { return ns.inodes.At(0) }

// NameNodes returns all registered metadata servers.
func (ns *Namesystem) NameNodes() []*NameNode { return ns.nns }

// nextID allocates an inode id.
func (ns *Namesystem) nextID() uint64 {
	ns.idSeq++
	return ns.idSeq
}

// NameNode is one stateless metadata server.
type NameNode struct {
	ns     *Namesystem
	Node   *simnet.Node
	ID     int
	Domain simnet.ZoneID

	cpu *sim.Resource

	// cache is the inode hint cache: path -> inode id (bounded LRU), used
	// to compute the partition-key hint that makes transactions
	// distribution aware and to prime batched optimistic path resolution.
	cache *hintCache

	// Election state observed by this NN at its last round.
	leaderID  int
	active    []ActiveNN
	stopped   bool
	lastRound time.Duration

	// Elastic lifecycle state (see elastic.go): a draining NN finishes its
	// in-flight operations but accepts no new ones; a decommissioned NN has
	// left the cluster for good. inflight counts operations currently
	// executing on this server (cooperative scheduling; no atomics needed).
	draining bool
	decom    bool
	inflight int

	// Ops counts operations served (per-NN throughput, Figure 6).
	Ops int64

	// health measures CPU utilization since the last health probe, so
	// HealthStats reports utilization over the probe interval.
	health *metrics.UtilWindow
}

// ActiveNN is one entry of the leader's active-NN list, carrying the
// locationDomainId reported during election (§IV-B3).
type ActiveNN struct {
	ID     int
	Domain simnet.ZoneID
}

// AddNameNode registers a metadata server in the given zone. domain is its
// locationDomainId (ZoneUnset for non-AZ-aware deployments). The NN's
// leader-election process starts immediately.
func (ns *Namesystem) AddNameNode(zone simnet.ZoneID, host simnet.HostID, domain simnet.ZoneID) *NameNode {
	id := len(ns.nns) + 1
	nn := &NameNode{
		ns:       ns,
		Node:     ns.db.Net().NewNode(fmt.Sprintf("nn-%d", id), zone, host),
		ID:       id,
		Domain:   domain,
		cpu:      sim.NewResource(ns.db.Env(), fmt.Sprintf("nn-%d/cpu", id), ns.cfg.NNCores),
		cache:    newHintCache(ns.cfg.HintCacheSize),
		leaderID: 1,
	}
	nn.health = metrics.NewUtilWindow(nn.cpu)
	nn.cache.setGauge(ns.cacheSizeGauge(nn))
	ns.nns = append(ns.nns, nn)
	ns.db.Env().Spawn(nn.Node.Name()+"/election", func(p *sim.Proc) { nn.electionLoop(p) })
	return nn
}

// CPU exposes the NN's processor pool for utilization accounting.
func (nn *NameNode) CPU() *sim.Resource { return nn.cpu }

// Alive reports whether the server is up.
func (nn *NameNode) Alive() bool { return nn.Node.Alive() && !nn.stopped }

// Fail takes the metadata server down.
func (nn *NameNode) Fail() { nn.stopped = true; nn.Node.Fail() }

// Recover restarts a failed metadata server: it is stateless, so recovery
// is simply rejoining the network and resuming leader-election rounds.
// Decommissioned servers have left the cluster and do not come back.
func (nn *NameNode) Recover() {
	if nn.Alive() || nn.decom {
		return
	}
	nn.stopped = false
	nn.Node.Recover()
	nn.cache = newHintCache(nn.ns.cfg.HintCacheSize)
	nn.cache.setGauge(nn.ns.cacheSizeGauge(nn))
	nn.ns.db.Env().Spawn(nn.Node.Name()+"/election", func(p *sim.Proc) { nn.electionLoop(p) })
}

// Leader returns the current leader NN (the namesystem-wide view: the
// lowest-id alive NN whose election row is fresh), or nil.
func (ns *Namesystem) Leader() *NameNode {
	for _, nn := range ns.nns {
		if nn.Alive() {
			return nn
		}
	}
	return nil
}

// partKey is the partition key of a directory's children.
func partKey(parent uint64) string { return strconv.FormatUint(parent, 10) }

// partKeyOf is the partition key of one inode row. Children of "/" are
// partitioned individually by name rather than by parent id: every
// operation resolves a top-level directory, and hashing them all to the
// root's partition would turn that partition's primary into a cluster-wide
// hotspot. HopsFS special-cases the root's immediate children the same way
// ([23]: the root's children are distributed over all partitions).
func partKeyOf(parent uint64, name string) string {
	if parent == RootID {
		return "c:" + name
	}
	return partKey(parent)
}

// inodeKey is the row key of an inode under its parent.
func inodeKey(parent uint64, name string) string {
	return strconv.FormatUint(parent, 10) + "/" + name
}

// charge bills NN CPU for an operation over depth path components (fluid
// deferred service on the server's core pool).
func (nn *NameNode) charge(p *sim.Proc, depth int) {
	c := nn.ns.cfg.Costs
	nn.cpu.UseDeferred(p, c.OpBase+time.Duration(depth)*c.PerComponent)
}

// chargeList bills the leader for serving the cached active-server list to
// a client: a per-entry in-memory read, far cheaper than a metadata op.
func (nn *NameNode) chargeList(p *sim.Proc, entries int) {
	if entries <= 0 {
		return
	}
	c := nn.ns.cfg.Costs
	nn.cpu.UseDeferred(p, time.Duration(entries)*c.PerListEntry)
}

// retriable reports whether a transaction error warrants a retry: lock
// timeouts (deadlock/overload backpressure) and node failovers.
func retriable(err error) bool {
	// An indeterminate cross-shard commit is decided — its durable intent
	// will complete it — so retrying would re-run an operation that is
	// already (going to be) applied and report a false definite failure.
	if errors.Is(err, shard.ErrIndeterminate) {
		return false
	}
	return errors.Is(err, ndb.ErrLockTimeout) || errors.Is(err, ndb.ErrNodeUnavailable)
}

// runTxn executes fn in a routed transaction with the given partition-key
// hint, retrying aborted transactions with exponential backoff — the
// paper's retry mechanism providing backpressure to NDB (§II-B2). The hint
// picks the shard whose sub-transaction opens eagerly; a stale hint only
// costs locality, never correctness, since every read and write re-routes
// by its own partition key. In detailed tracing mode each attempt becomes a
// "txn" child span of the operation's root span, carrying the TC-selection
// attributes set by ndb.Begin.
func (nn *NameNode) runTxn(p *sim.Proc, hint string, fn func(tx *shard.Txn) error) error {
	attemptTxn := func() error {
		tx, err := nn.ns.router.Begin(p, nn.Node, nn.Domain, nn.ns.inodes, hint)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	backoff := nn.ns.cfg.RetryBackoff
	for attempt := 0; attempt <= nn.ns.cfg.RetryMax; attempt++ {
		var err error
		if ts := p.Span().Child("txn", p.EffNow()); ts != nil {
			if attempt > 0 {
				ts.SetAttr("retry", strconv.Itoa(attempt))
			}
			prev := p.SetSpan(ts)
			err = attemptTxn()
			ts.Finish(p.EffNow())
			p.SetSpan(prev)
		} else {
			err = attemptTxn()
		}
		if err == nil {
			return nil
		}
		if !retriable(err) {
			return err
		}
		jitter := time.Duration(p.Rand().Int63n(int64(backoff)))
		p.Sleep(backoff + jitter)
		if backoff < 64*nn.ns.cfg.RetryBackoff {
			backoff *= 2
		}
	}
	return ErrRetriesExhausted
}

// PendingIntents returns the number of durable cross-shard intent records
// not yet resolved — the chaos auditor's "no intent left behind" invariant
// reads it after a quiesced sweep. Always zero for unsharded deployments.
func (ns *Namesystem) PendingIntents() int {
	return ns.router.PendingIntentCount()
}

// ResolvePendingIntents sweeps and resolves every durable cross-shard
// intent record left by coordinators that crashed (or were cut off)
// mid-commit, rolling each one forward or back. Recovery runs from an
// alive namenode; with none alive it reports ErrNoNameNodes.
func (ns *Namesystem) ResolvePendingIntents(p *sim.Proc) (int, error) {
	nn := ns.Leader()
	if nn == nil {
		return 0, ErrNoNameNodes
	}
	return ns.router.ResolvePendingIntents(p, nn.Node, nn.Domain)
}

// annotate tags the operation's active (root) span with the serving server
// and target path, and emits the path touch. Attributes only materialize
// in detailed tracing mode; the touch is emitted in aggregate mode too.
func (nn *NameNode) annotate(p *sim.Proc, path string) {
	if tr := nn.ns.tracer; tr.Subscribed() {
		tr.Emit(trace.Event{Kind: trace.PathTouch, At: p.Now(), Path: path})
	}
	if sp := p.Span(); sp != nil {
		sp.SetAttr("nn", nn.Node.Name())
		sp.SetAttr("path", path)
	}
}
