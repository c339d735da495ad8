package main

import (
	"fmt"
	"time"

	"hopsfscl/internal/core"
	"hopsfscl/internal/workload"
)

// spec is one benchmark workload: a closed loop of 384 clients (12
// namenodes x 32 clients) on HopsFS-CL (3,3), each client issuing its next
// operation when the previous one returns.
type spec struct {
	name string
	mix  workload.Mix
	// affinity is the probability an operation targets the client's home
	// directories.
	affinity float64
	// sharedDirs > 0 gives every client the same home directories: the
	// first sharedDirs dataset directories of the namespace. Zero keeps
	// the default per-client assignment of two directories.
	sharedDirs int
	// shards is the number of NDB clusters the namespace is split across.
	shards int
	// observed turns on heat maps, the SLO engine and exemplar capture,
	// as the hotspot and SLO users run the system.
	observed bool
	// warmup is the fixed virtual run-in before the window; it must give
	// every client at least minWarmOps operations so the namenode hint
	// caches are full. window is the measured virtual interval.
	warmup, window time.Duration
}

const (
	nameNodes         = 12
	clientsPerNN      = 32
	homeDirsPerClient = 2
	// minWarmOps is the warm-up each client must complete before the
	// window opens (the harness default, bench.DefaultRunConfig).
	minWarmOps = 120
)

// mutateMix is 70% namespace mutations beside 30% stat and list.
var mutateMix = workload.Mix{
	workload.OpCreate:  0.22,
	workload.OpDelete:  0.12,
	workload.OpRename:  0.12,
	workload.OpMkdir:   0.06,
	workload.OpSetPerm: 0.18,
	workload.OpStat:    0.18,
	workload.OpList:    0.12,
}

var specs = []spec{
	{
		name: "spotify", mix: workload.SpotifyMix, affinity: 0.95, shards: 1,
		warmup: 200 * time.Millisecond, window: 300 * time.Millisecond,
	},
	{
		name: "mutate-contended", mix: mutateMix, affinity: 0.9, sharedDirs: 8, shards: 2,
		warmup: 450 * time.Millisecond, window: 300 * time.Millisecond,
	},
	{
		name: "spotify-observed", mix: workload.SpotifyMix, affinity: 0.95, shards: 1, observed: true,
		warmup: 200 * time.Millisecond, window: 300 * time.Millisecond,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the deployment the workload runs on.
func (s spec) options(seed int64) (core.Options, error) {
	setup, ok := core.SetupByName("HopsFS-CL (3,3)")
	if !ok {
		return core.Options{}, fmt.Errorf("setup HopsFS-CL (3,3) not found")
	}
	opts := core.DefaultOptions(setup)
	opts.MetadataServers = nameNodes
	opts.ClientsPerServer = clientsPerNN
	opts.Shards = s.shards
	opts.Seed = seed
	return opts, nil
}

// homeDirs returns client i's home directories.
func (s spec) homeDirs(ns *workload.Namespace, i int) []string {
	if s.sharedDirs > 0 {
		return ns.HomeDirsFor(0, s.sharedDirs)
	}
	return ns.HomeDirsFor(i, homeDirsPerClient)
}
