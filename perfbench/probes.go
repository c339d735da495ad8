package main

import (
	"runtime"
	"time"

	"hopsfscl/internal/sim"
	"hopsfscl/internal/simnet"
)

// probeOps is the operation count of one microprobe repetition, and
// probeReps how many repetitions each probe's median is taken over.
const (
	probeOps  = 50000
	probeReps = 5
)

// measureProbe runs fn(probeOps/4) to warm the kernel's pools, then times
// probeReps runs of fn(probeOps). It reports the median wall nanoseconds
// and heap allocations per operation.
func measureProbe(fn func(ops int)) (nsPerOp, allocsPerOp float64) {
	fn(probeOps / 4)
	var ns, allocs []float64
	for range probeReps {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(probeOps)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(wall.Nanoseconds())/probeOps)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/probeOps)
	}
	return median(ns), median(allocs)
}

// runProbes measures the kernel and network primitives every simulated
// operation is built from, through their public APIs only.
func runProbes(seed int64) map[string]float64 {
	out := make(map[string]float64)
	probe := func(name string, fn func(ops int)) {
		out[name+"_ns"], out[name+"_allocs"] = measureProbe(fn)
	}

	{ // Spawn, first resume and exit of a process that does nothing.
		env := sim.New(seed)
		probe("sim.spawn_exit", func(n int) {
			for i := 0; i < n; i++ {
				env.Spawn("child", func(*sim.Proc) {})
				if i%1024 == 1023 {
					env.Run()
				}
			}
			env.Run()
		})
		env.Close()
	}

	{ // Two sends, two receives and two switches per round trip.
		env := sim.New(seed)
		ping := sim.NewMailbox[int](env)
		pong := sim.NewMailbox[int](env)
		probe("sim.mailbox_pingpong", func(n int) {
			env.Spawn("ping", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ping.Send(i)
					pong.Recv(p)
				}
			})
			env.Spawn("pong", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					pong.Send(ping.Recv(p))
				}
			})
			env.Run()
		})
		env.Close()
	}

	{ // Timer schedule, fire and resume.
		env := sim.New(seed)
		probe("sim.sleep_wake", func(n int) {
			env.Spawn("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Microsecond)
				}
			})
			env.Run()
		})
		env.Close()
	}

	{ // A receive with a timeout that a later send satisfies: the timer
		// cancellation path every RPC with a deadline takes.
		env := sim.New(seed)
		mb := sim.NewMailbox[int](env)
		probe("sim.recv_timeout", func(n int) {
			env.Spawn("waiter", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					env.After(time.Microsecond, func() { mb.Send(1) })
					mb.RecvTimeout(p, time.Hour)
				}
			})
			env.Run()
		})
		env.Close()
	}

	{ // One cross-AZ datagram, delivered into the receiver's inbox.
		env := sim.New(seed)
		net := simnet.New(env, simnet.USWest1())
		a := net.NewNode("a", 1, 1)
		c := net.NewNode("c", 2, 2)
		probe("simnet.send", func(n int) {
			env.Spawn("drain", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					a.Inbox.Recv(p)
				}
			})
			env.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					net.Send(c, a, 256, nil)
					p.Sleep(10 * time.Microsecond)
				}
			})
			env.Run()
		})
		env.Close()
	}
	return out
}
