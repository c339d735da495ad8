package namenode

import (
	"errors"
	"time"

	"hopsfscl/internal/blocks"
	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
	"hopsfscl/internal/trace"
)

// Wire sizes for client-NN RPCs.
const (
	rpcReqSize  = 256
	rpcRespSize = 512
)

// Client is a HopsFS-CL file system client. Per §II-A2 and §IV-B3: a client
// fetches the active metadata-server list from the leader, prefers a server
// with its own locationDomainId (falling back to a random one), sticks with
// it until it fails, and then selects a random surviving server.
type Client struct {
	ns     *Namesystem
	Node   *simnet.Node
	Domain simnet.ZoneID

	nn *NameNode

	// epoch is the re-balance epoch the sticky choice was made under; when
	// the serving set changes (Commission / Drain) the namesystem bumps its
	// epoch and every client re-picks lazily at its next operation.
	epoch int

	// span is the reusable root-span buffer for aggregate-mode tracing:
	// a client runs one operation at a time, so StartOpInto can overwrite
	// it per call instead of allocating.
	span trace.Span
}

// NewClient registers a client in the given zone. domain is its
// locationDomainId (ZoneUnset disables the AZ-local preference).
func (ns *Namesystem) NewClient(zone simnet.ZoneID, host simnet.HostID, domain simnet.ZoneID) *Client {
	return &Client{
		ns:     ns,
		Node:   ns.db.Net().NewNode("client", zone, host),
		Domain: domain,
	}
}

// CurrentNameNode returns the server the client is stuck to (nil before the
// first operation).
func (cl *Client) CurrentNameNode() *NameNode { return cl.nn }

// pick selects (or keeps) the client's metadata server.
func (cl *Client) pick(p *sim.Proc) (*NameNode, error) {
	if cl.nn != nil && cl.nn.Serving() && cl.epoch == cl.ns.balanceEpoch {
		return cl.nn, nil
	}
	cl.epoch = cl.ns.balanceEpoch
	leader := cl.ns.ElectedLeader()
	if leader == nil {
		return nil, ErrNoNameNodes
	}
	// Fetch the active-NN list from the leader. Serving it is an in-memory
	// read of the cached election view, so it is billed per entry rather
	// than as a full metadata operation: when a Commission or Drain bumps
	// the balance epoch, every client re-picks at its next call, and at
	// full-op cost that stampede would queue behind real work on the
	// leader's cores and show up as a latency spike the autoscaler then
	// chases.
	if !cl.travel(p, cl.Node, leader.Node, rpcReqSize) {
		return nil, ErrNoNameNodes
	}
	active := leader.ActiveNameNodes()
	leader.chargeList(p, len(active))
	if !cl.travel(p, leader.Node, cl.Node, rpcRespSize+16*len(active)) {
		return nil, ErrNoNameNodes
	}
	if len(active) == 0 {
		// Elections have not completed a round yet; the leader answers
		// with the statically configured server set.
		for _, nn := range cl.ns.nns {
			active = append(active, ActiveNN{ID: nn.ID, Domain: nn.Domain})
		}
	}
	var local, all []*NameNode
	for _, a := range active {
		if a.ID < 1 || a.ID > len(cl.ns.nns) {
			continue
		}
		nn := cl.ns.nns[a.ID-1]
		if !nn.Serving() {
			continue
		}
		all = append(all, nn)
		if cl.Domain != simnet.ZoneUnset && a.Domain == cl.Domain {
			local = append(local, nn)
		}
	}
	pool := local
	if len(pool) == 0 {
		pool = all
	}
	if len(pool) == 0 {
		// Every server in the leader's (possibly stale) view is dead:
		// fall back to the statically configured set, like a real client
		// falling back to its configured namenode list.
		for _, nn := range cl.ns.nns {
			if nn.Serving() {
				pool = append(pool, nn)
			}
		}
	}
	if len(pool) == 0 {
		return nil, ErrNoNameNodes
	}
	cl.nn = pool[p.Rand().Intn(len(pool))]
	return cl.nn, nil
}

func (cl *Client) travel(p *sim.Proc, from, to *simnet.Node, size int) bool {
	return cl.ns.db.Net().TravelDeferred(p, from, to, size, 2*time.Second)
}

// do runs one metadata RPC against the client's server, switching to a
// surviving server when the current one fails mid-call. op names the
// operation for the trace layer ("stat", "mkdir", ...): each call emits
// exactly one root span under that name.
func (cl *Client) do(p *sim.Proc, op string, reqExtra, respExtra int, fn func(nn *NameNode) error) error {
	return cl.doSized(p, op, reqExtra, func(nn *NameNode) (int, error) {
		return respExtra, fn(nn)
	})
}

// doSized is do with a response payload size determined by the handler
// (e.g. inline file bytes riding the reply).
func (cl *Client) doSized(p *sim.Proc, op string, reqExtra int, fn func(nn *NameNode) (int, error)) error {
	sp := cl.ns.tracer.StartOpInto(&cl.span, op, p.EffNow())
	var prev *trace.Span
	if sp != nil {
		prev = p.SetSpan(sp)
	}
	err := cl.rpc(p, reqExtra, fn)
	if sp != nil {
		p.SetSpan(prev)
		if err != nil {
			sp.SetError()
			if IsOutcomeError(err) {
				sp.SetBenign()
			}
		}
		sp.Finish(p.EffNow())
	}
	return err
}

// rpc is the uninstrumented RPC retry loop shared by all operations.
func (cl *Client) rpc(p *sim.Proc, reqExtra int, fn func(nn *NameNode) (int, error)) error {
	for attempt := 0; attempt < 4; attempt++ {
		nn, err := cl.pick(p)
		if err != nil {
			return err
		}
		if !cl.travel(p, cl.Node, nn.Node, rpcReqSize+reqExtra) {
			cl.nn = nil
			continue
		}
		nn.inflight++
		respExtra, err := fn(nn)
		nn.inflight--
		if !cl.travel(p, nn.Node, cl.Node, rpcRespSize+respExtra) {
			cl.nn = nil
			continue
		}
		// Synchronize with the clock so a caller measuring end-to-end
		// latency sees every deferred hop and service time.
		p.Flush()
		return err
	}
	return ErrNoNameNodes
}

// Exists reports whether a path resolves.
func (cl *Client) Exists(p *sim.Proc, path string) (bool, error) {
	_, err := cl.Stat(p, path)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Du returns the content summary of a subtree: file count, directory
// count, and total logical bytes (the HDFS getContentSummary operation,
// implemented as recursive partition-pruned scans in one transaction).
func (cl *Client) Du(p *sim.Proc, path string) (files, dirs int, bytes int64, err error) {
	err = cl.do(p, "contentSummary", 0, 0, func(nn *NameNode) error {
		var ierr error
		files, dirs, bytes, ierr = nn.ContentSummary(p, path)
		return ierr
	})
	return files, dirs, bytes, err
}

// Mkdir creates a directory.
func (cl *Client) Mkdir(p *sim.Proc, path string) error {
	return cl.do(p, "mkdir", 0, 0, func(nn *NameNode) error { return nn.Mkdir(p, path, 0o755) })
}

// MkdirAll creates a directory and any missing ancestors.
func (cl *Client) MkdirAll(p *sim.Proc, path string) error {
	comps, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, c := range comps {
		cur += "/" + c
		if err := cl.Mkdir(p, cur); err != nil && err != ErrExists {
			return err
		}
	}
	return nil
}

// Create creates an empty or small file (metadata-only operation).
func (cl *Client) Create(p *sim.Proc, path string, size int64) error {
	return cl.do(p, "create", int(size), 0, func(nn *NameNode) error {
		_, err := nn.Create(p, path, size)
		return err
	})
}

// WriteFile creates a file of the given size: small files travel inline to
// NDB with the metadata; large files are split into blocks and streamed
// through the block layer pipeline, then attached to the inode.
func (cl *Client) WriteFile(p *sim.Proc, path string, size int64) error {
	if size <= cl.ns.cfg.SmallFileThreshold || cl.ns.blockMgr == nil {
		return cl.Create(p, path, size)
	}
	if err := cl.Create(p, path, 0); err != nil {
		return err
	}
	mgr := cl.ns.blockMgr
	var ids []blocks.BlockID
	remaining := size
	for remaining > 0 {
		sz := min(remaining, mgr.BlockSize())
		b, err := mgr.WriteBlock(p, cl.Node, 0, sz)
		if err != nil {
			return err
		}
		ids = append(ids, b.ID)
		remaining -= sz
	}
	err := cl.do(p, "attachBlocks", 0, 0, func(nn *NameNode) error {
		return nn.AttachBlocks(p, path, ids, size)
	})
	if err != nil && !errors.Is(err, ErrNoNameNodes) && !errors.Is(err, ErrRetriesExhausted) {
		// The attach definitively failed (a namespace error, not a lost
		// response), so the streamed blocks can never be referenced:
		// release them now instead of waiting for orphan reclamation.
		for _, id := range ids {
			mgr.DeleteBlock(id)
		}
	}
	return err
}

// ReadFile reads a file: the metadata operation plus inline data or block
// streaming, preferring AZ-local block replicas. Inline small-file bytes
// ride the metadata response from the NN (§II-A3), so they are charged on
// that leg of the wire.
func (cl *Client) ReadFile(p *sim.Proc, path string) (*Inode, error) {
	var ino *Inode
	err := cl.doSized(p, "read", 0, func(nn *NameNode) (int, error) {
		got, err := nn.GetBlockLocations(p, path)
		if err != nil {
			return 0, err
		}
		ino = got
		return int(got.InlineSize), nil
	})
	if err != nil {
		return nil, err
	}
	if cl.ns.blockMgr != nil {
		for _, id := range ino.Blocks {
			if _, err := cl.ns.blockMgr.ReadBlock(p, cl.Node, id); err != nil {
				return nil, err
			}
		}
	}
	return ino, nil
}

// Stat returns metadata for a path.
func (cl *Client) Stat(p *sim.Proc, path string) (*Inode, error) {
	var out *Inode
	err := cl.do(p, "stat", 0, 0, func(nn *NameNode) error {
		got, err := nn.Stat(p, path)
		if err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}

// List returns a directory's children.
func (cl *Client) List(p *sim.Proc, path string) ([]*Inode, error) {
	var out []*Inode
	err := cl.do(p, "list", 0, 0, func(nn *NameNode) error {
		got, err := nn.List(p, path)
		if err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}

// Delete removes a path, reclaiming block replicas after the metadata
// transaction commits. Reclamation happens on the server side of the RPC
// (in HopsFS the NN queues invalidations as part of the delete), so a lost
// response cannot leave the replicas orphaned.
func (cl *Client) Delete(p *sim.Proc, path string, recursive bool) error {
	return cl.do(p, "delete", 0, 0, func(nn *NameNode) error {
		freed, err := nn.Delete(p, path, recursive)
		if err != nil {
			return err
		}
		if cl.ns.blockMgr != nil {
			for _, id := range freed {
				cl.ns.blockMgr.DeleteBlock(id)
			}
		}
		return nil
	})
}

// Rename atomically moves src to dst.
func (cl *Client) Rename(p *sim.Proc, src, dst string) error {
	return cl.do(p, "rename", 0, 0, func(nn *NameNode) error { return nn.Rename(p, src, dst) })
}

// SetPermission updates mode bits.
func (cl *Client) SetPermission(p *sim.Proc, path string, perm uint16) error {
	return cl.do(p, "setPermission", 0, 0, func(nn *NameNode) error { return nn.SetPermission(p, path, perm) })
}

// SetOwner updates ownership.
func (cl *Client) SetOwner(p *sim.Proc, path, owner string) error {
	return cl.do(p, "setOwner", 0, 0, func(nn *NameNode) error { return nn.SetOwner(p, path, owner) })
}

// SetQuota sets (or clears, with both limits zero) a directory's namespace
// and storage-space quota.
func (cl *Client) SetQuota(p *sim.Proc, path string, nsQuota, ssQuota int64) error {
	return cl.do(p, "setQuota", 0, 0, func(nn *NameNode) error { return nn.SetQuota(p, path, nsQuota, ssQuota) })
}

// Quota returns a directory's quota limits and accumulated usage.
func (cl *Client) Quota(p *sim.Proc, path string) (QuotaInfo, error) {
	var out QuotaInfo
	err := cl.do(p, "quota", 0, 0, func(nn *NameNode) error {
		got, err := nn.Quota(p, path)
		if err != nil {
			return err
		}
		out = got
		return nil
	})
	return out, err
}
