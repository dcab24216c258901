package main

import (
	"fmt"
	"sort"
	"time"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/metrics"
	"depfast/internal/raft"
	"depfast/internal/rpc"
	"depfast/internal/transport"
)

// setupRounds is how many clusters a run builds; setup_s is the median
// of their construction-to-leader times and the last one is measured.
const setupRounds = 5

// cluster is a three-node DepFastRaft deployment plus the client
// runtimes that drive it, all sharing one in-memory network behind a tap.
type cluster struct {
	names   []string
	net     *transport.Network
	tap     *tap
	envs    map[string]*env.Env
	servers map[string]*raft.Server
	leader  string
	// slow is the follower the slow-follower workload faults; healthy is
	// the other one. Both are fixed once the leader is known.
	slow, healthy string

	clientRTs []*core.Runtime
	clientEPs []*rpc.Endpoint
}

// buildCluster constructs servers and waits for an agreed leader,
// returning the cluster and the time that took.
func buildCluster(w workload, seed int64, reg *metrics.Registry) (*cluster, time.Duration, error) {
	start := time.Now()
	net := transport.NewNetwork()
	c := &cluster{
		names:   []string{"s1", "s2", "s3"},
		net:     net,
		tap:     newTap(net),
		envs:    make(map[string]*env.Env),
		servers: make(map[string]*raft.Server),
	}
	tp := c.tap
	for i, name := range c.names {
		rcfg := raft.DefaultConfig(name, c.names)
		rcfg.Seed = seed + int64(i)*7919
		rcfg.ReadIndex = w.lease
		rcfg.LeaderLease = w.lease
		rcfg.Metrics = reg
		e := env.New(name, env.DefaultConfig())
		s := raft.NewServer(rcfg, e, tp)
		c.net.Register(name, e, tp.handler(name, s.TransportHandler()))
		c.envs[name], c.servers[name] = e, s
	}
	for _, s := range c.servers {
		s.Start()
	}
	deadline := start.Add(15 * time.Second)
	for {
		if leader, ok := raft.AgreedLeader(c.servers); ok {
			c.leader = leader
			break
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, 0, fmt.Errorf("no agreed leader within 15s")
		}
		time.Sleep(time.Millisecond)
	}
	took := time.Since(start)
	followers := c.followers()
	c.slow, c.healthy = followers[0], followers[1]
	return c, took, nil
}

// setUp builds setupRounds clusters with distinct election seeds, keeps
// the last and reports the median setup time in seconds.
func setUp(w workload, seed int64, reg *metrics.Registry) (*cluster, float64, error) {
	var times []float64
	var c *cluster
	for round := 0; round < setupRounds; round++ {
		if c != nil {
			c.close()
		}
		var took time.Duration
		var err error
		c, took, err = buildCluster(w, seed*104729+int64(round)*15485863, reg)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
	}
	sort.Float64s(times)
	return c, times[len(times)/2], nil
}

func (c *cluster) followers() []string {
	var out []string
	for _, n := range c.names {
		if n != c.leader {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// addClients starts n client runtimes, each with an endpoint on the
// tapped network.
func (c *cluster) addClients(n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("client-%d", i)
		rt := core.NewRuntime(name)
		ep := rpc.NewEndpoint(name, rt, c.tap, rpc.WithCallTimeout(3*time.Second))
		c.net.Register(name, env.New(name, env.DefaultConfig()), c.tap.handler(name, ep.TransportHandler()))
		c.clientRTs = append(c.clientRTs, rt)
		c.clientEPs = append(c.clientEPs, ep)
	}
}

// order lists the servers leader first, so clients start on target.
func (c *cluster) order() []string {
	return append([]string{c.leader}, c.followers()...)
}

func (c *cluster) close() {
	for i := range c.clientRTs {
		c.clientEPs[i].Close()
		c.clientRTs[i].Stop()
	}
	for _, s := range c.servers {
		s.Stop()
	}
	c.net.Close()
}
