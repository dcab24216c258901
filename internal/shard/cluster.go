package shard

import (
	"fmt"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/transport"
)

// ClusterConfig parameterizes a sharded deployment. Only Map is
// required; everything else has a default.
type ClusterConfig struct {
	// Map lays out the groups and replica names.
	Map Map

	// Seed returns the Raft RNG seed for replica index i of group g;
	// nil uses raft.DefaultConfig's name-derived seed. Deterministic
	// seeds make deployments reproducible across runs.
	Seed func(group, replica int) int64

	// Recorder is the root flight recorder; each group's servers emit
	// through a view tagged with the group's shard ID, so the unified
	// timeline attributes every event to its shard. Nil disables
	// recording.
	Recorder *obs.Recorder

	// Env overrides the per-node resource model; the zero value means
	// env.DefaultConfig().
	Env env.Config

	// RaftMutate, when set, adjusts each server's config after
	// defaults are applied — the hook harnesses use to enable
	// mitigation, shrink timeouts, or tune the write stall per group.
	RaftMutate func(group int, cfg *raft.Config)

	// SparesPerGroup provisions that many idle spare replicas per
	// group, registered on the network and started but holding no
	// config until a leader joins them (snapshot bootstrap). Every
	// member's Config.Spares names its group's pool, so the automated
	// replacement pipeline (Config.AutoReplace, set via RaftMutate) can
	// restore a group's replication factor without operator action.
	SparesPerGroup int

	// RuntimeOpts are passed to every server runtime (tracer wiring).
	RuntimeOpts []core.Option
}

// Group is one Raft replica group of a sharded deployment.
type Group struct {
	// Index is the group's position in the map; ID its shard tag.
	Index int
	ID    string
	// Names lists the group's replicas; Servers and Envs index them.
	Names []string
	// Spares lists the group's idle spare pool (also in Servers/Envs).
	Spares  []string
	Servers map[string]*raft.Server
	Envs    map[string]*env.Env
	// Recorder is the group's shard-tagged view of the root recorder.
	Recorder *obs.Recorder
}

// Leader reports the group's majority-agreed leader, if any.
func (g *Group) Leader() (string, bool) { return raft.AgreedLeader(g.Servers) }

// Server returns the named replica's server (nil if not in group).
func (g *Group) Server(name string) *raft.Server { return g.Servers[name] }

// Env returns the named replica's environment (nil if not in group).
func (g *Group) Env(name string) *env.Env { return g.Envs[name] }

// Elections sums election counts across the group's replicas.
func (g *Group) Elections() int64 {
	var total int64
	for _, s := range g.Servers {
		total += s.Elections.Value()
	}
	return total
}

// Cluster is a running sharded deployment: one Raft group per map
// entry, all registered on one shared network so routers and clients
// reach every replica. The cluster owns the servers and environments
// but not the network — the caller creates and closes it, keeping
// the framework split intact (this package only references transport
// types, it never constructs the I/O layer).
type Cluster struct {
	m      Map
	groups []*Group
}

// NewCluster constructs servers for every replica of every group and
// registers them on net. Servers are built but not started; call
// Start.
//
// Each group is an independent Raft deployment: its servers list only
// the group's own replicas as peers, so elections, replication,
// detection, and mitigation are all scoped to the group. That per-
// group scope is the containment mechanism — a fail-slow fault in one
// group cannot recruit another group's sentinel, quarantine set, or
// quorum.
func NewCluster(cfg ClusterConfig, net *transport.Network) *Cluster {
	ecfg := cfg.Env
	if ecfg == (env.Config{}) {
		ecfg = env.DefaultConfig()
	}
	c := &Cluster{m: cfg.Map}
	for g := 0; g < cfg.Map.Groups(); g++ {
		names := cfg.Map.Replicas(g)
		grp := &Group{
			Index:    g,
			ID:       cfg.Map.ShardID(g),
			Names:    names,
			Servers:  make(map[string]*raft.Server, len(names)),
			Envs:     make(map[string]*env.Env, len(names)),
			Recorder: cfg.Recorder.Tagged(cfg.Map.ShardID(g)),
		}
		for k := 0; k < cfg.SparesPerGroup; k++ {
			grp.Spares = append(grp.Spares, fmt.Sprintf("%s-sp%d", grp.ID, k+1))
		}
		for i, name := range names {
			rcfg := raft.DefaultConfig(name, names)
			if cfg.Seed != nil {
				rcfg.Seed = cfg.Seed(g, i)
			}
			rcfg.Recorder = grp.Recorder
			rcfg.Spares = append([]string(nil), grp.Spares...)
			if cfg.RaftMutate != nil {
				cfg.RaftMutate(g, &rcfg)
			}
			e := env.New(name, ecfg)
			s := raft.NewServer(rcfg, e, net, cfg.RuntimeOpts...)
			net.Register(name, e, s.TransportHandler())
			grp.Servers[name] = s
			grp.Envs[name] = e
		}
		for k, name := range grp.Spares {
			// A spare starts with no peers: an empty voter set never
			// campaigns, so it idles until a leader's InstallSnapshot
			// hands it the group's config.
			rcfg := raft.DefaultConfig(name, nil)
			if cfg.Seed != nil {
				rcfg.Seed = cfg.Seed(g, len(names)+k)
			}
			rcfg.Recorder = grp.Recorder
			rcfg.Spares = append([]string(nil), grp.Spares...)
			if cfg.RaftMutate != nil {
				cfg.RaftMutate(g, &rcfg)
			}
			e := env.New(name, ecfg)
			s := raft.NewServer(rcfg, e, net, cfg.RuntimeOpts...)
			net.Register(name, e, s.TransportHandler())
			grp.Servers[name] = s
			grp.Envs[name] = e
		}
		c.groups = append(c.groups, grp)
	}
	return c
}

// Start launches every server (members and spares) in every group.
func (c *Cluster) Start() {
	for _, g := range c.groups {
		for _, name := range g.Names {
			g.Servers[name].Start()
		}
		for _, name := range g.Spares {
			g.Servers[name].Start()
		}
	}
}

// Stop shuts every server down. The shared network stays open; its
// owner closes it.
func (c *Cluster) Stop() {
	for _, g := range c.groups {
		for _, name := range g.Names {
			g.Servers[name].Stop()
		}
		for _, name := range g.Spares {
			g.Servers[name].Stop()
		}
	}
}

// Map returns the cluster's shard map.
func (c *Cluster) Map() Map { return c.m }

// Groups returns all groups in index order.
func (c *Cluster) Groups() []*Group { return c.groups }

// Group returns group g.
func (c *Cluster) Group(g int) *Group { return c.groups[g] }

// GroupFor returns the group owning key.
func (c *Cluster) GroupFor(key string) *Group { return c.groups[c.m.Owner(key)] }

// Leaders reports every group's agreed leader; ok is false until all
// groups have one.
func (c *Cluster) Leaders() ([]string, bool) {
	out := make([]string, len(c.groups))
	for i, g := range c.groups {
		name, elected := g.Leader()
		if !elected {
			return nil, false
		}
		out[i] = name
	}
	return out, true
}
