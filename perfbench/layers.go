package main

import (
	"slices"
	"strings"
	"time"

	"hopsfscl/internal/profile"
	"hopsfscl/internal/trace"
	"hopsfscl/internal/workload"
)

// clientOps are the eight operation classes the client boundary reports.
var clientOps = []workload.Op{
	workload.OpMkdir, workload.OpCreate, workload.OpStat, workload.OpRead,
	workload.OpList, workload.OpDelete, workload.OpRename, workload.OpSetPerm,
}

// addClientOps adds client.<op>.{count,p50_ms,p99_ms}: which operation
// class moved an end-to-end percentile.
func addClientOps(v map[string]float64, spans []opSpan) {
	byOp := make(map[workload.Op][]time.Duration)
	for _, s := range spans {
		byOp[s.op] = append(byOp[s.op], s.end-s.start)
	}
	for _, op := range clientOps {
		lat := byOp[op]
		slices.Sort(lat)
		key := "client." + op.String()
		v[key+".count"] = float64(len(lat))
		v[key+".p50_ms"] = ms(percentile(lat, 0.50))
		v[key+".p99_ms"] = ms(percentile(lat, 0.99))
	}
}

// addRegistry derives the per-layer ratios of the simnet, namenode, ndb and
// shard layers from the window's registry delta; ops is the number of
// client operations in the window.
func addRegistry(v map[string]float64, reg []trace.Sample, ops float64) {
	get := func(name string, labels ...string) float64 {
		x, _ := trace.Lookup(reg, trace.Name(name, labels...))
		return x
	}
	// sum adds every sample of a labelled family.
	sum := func(family string) float64 {
		var total float64
		for _, s := range reg {
			if strings.HasPrefix(s.Name, family+"{") {
				total += s.Value
			}
		}
		return total
	}

	v["net.msgs_per_vop"] = ratio(sum("net.msgs"), ops)
	v["net.bytes_per_vop"] = ratio(sum("net.bytes"), ops)
	v["net.cross_az_bytes_per_vop"] = ratio(get("net.bytes", "class", trace.HopCrossZone.String()), ops)

	resolves := sum("namenode.resolve_cache")
	v["namenode.resolve_cache.hit_frac"] = ratio(get("namenode.resolve_cache", "result", "hit"), resolves)
	v["namenode.resolve_cache.fallback_frac"] = ratio(get("namenode.resolve_cache", "result", "fallback"), resolves)

	v["ndb.commit.trains_per_vop"] = ratio(get("ndb.commit.trains"), ops)
	v["ndb.commit.rows_per_train"] = ratio(get("ndb.commit.rows_per_train.sum_ns"), get("ndb.commit.rows_per_train.count"))
	v["ndb.batch.rows_per_read"] = ratio(sum("ndb.batch.rows"), get("ndb.batch.reads"))
	v["ndb.lock_wait_ms_per_vop"] = ratio(get("txn.lock_wait.sum_ns")/float64(time.Millisecond), ops)
	v["ndb.lock_blocks_per_kvop"] = ratio(1000*get("txn.lock_wait.count"), ops)
	v["ndb.tc_select.local_frac"] = ratio(
		get("ndb.tc_select", "prox", "same_host")+get("ndb.tc_select", "prox", "same_zone"),
		sum("ndb.tc_select"))

	local, cross := get("shard.txn.local"), get("shard.txn.cross")
	v["shard.cross_frac"] = ratio(cross, local+cross)
	v["shard.cross_commit_ms_mean"] = ratio(get("shard.txn.cross_commit.sum_ns")/float64(time.Millisecond),
		get("shard.txn.cross_commit.count"))
	v["shard.cross_aborts"] = get("shard.txn.cross_aborts")
	v["shard.cross_indeterminate"] = get("shard.txn.cross_indeterminate")
}

// cpNames maps the critical-path categories onto cp.* metric names.
var cpNames = map[profile.Category]string{
	profile.CatCompute:     "cp.compute_ms",
	profile.CatLockWait:    "cp.lock_wait_ms",
	profile.CatPrepare:     "cp.2pc.prepare_ms",
	profile.CatCommit:      "cp.2pc.commit_ms",
	profile.CatComplete:    "cp.2pc.complete_ms",
	profile.CatHopLocal:    "cp.net.local_ms",
	profile.CatHopSameHost: "cp.net.same_host_ms",
	profile.CatHopSameZone: "cp.net.same_zone_ms",
	profile.CatHopCrossAZ:  "cp.net.cross_az_ms",
}

// cpOrder is the report order of the critical-path categories.
var cpOrder = []profile.Category{
	profile.CatCompute, profile.CatLockWait,
	profile.CatPrepare, profile.CatCommit, profile.CatComplete,
	profile.CatHopLocal, profile.CatHopSameHost, profile.CatHopSameZone, profile.CatHopCrossAZ,
}

// addCriticalPath adds the mean critical-path time per operation in each
// category; the cp.* values of one window sum to its mean latency.
func addCriticalPath(v map[string]float64, r *profile.Report) {
	byCat, _ := r.Totals()
	var count int64
	for _, op := range r.Ops {
		count += op.Count
	}
	for c, name := range cpNames {
		v[name] = ratio(ms(byCat[c]), float64(count))
	}
	v["cp.ops"] = float64(count)
}
