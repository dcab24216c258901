package main

import (
	"flag"
	"testing"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/kv"
	"depfast/internal/metrics"
	"depfast/internal/raft"
	"depfast/internal/storage"
	"depfast/internal/ycsb"
)

// perLayer fills the per-layer metrics of a traced run. win is the
// traced window, ref the untraced reference window before it.
func perLayer(r *report, w workload, win, ref windowStats, before, after probe,
	depthPeak int64, lagHealthy, lagSlow int64, commitP50 time.Duration) {
	ops := float64(max(win.completed, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	msgs := float64(after.msgs - before.msgs)
	r.add("transport.msgs_per_op", msgs/ops, "msg/op")
	r.add("transport.bytes_per_op", float64(after.bytes-before.bytes)/ops, "B/op")
	r.add("transport.send_ns", ratio(float64(after.sendNs-before.sendNs), msgs), "ns")

	r.add("raft.entries_per_append", ratio(float64(after.entries-before.entries), float64(after.appends-before.appends)), "entry")
	r.add("raft.wal_stalls_per_kop", float64(after.walStalls-before.walStalls)/(ops/1000), "count/kop")
	leased := float64(after.leaseReads - before.leaseReads)
	r.add("raft.lease_read_share", ratio(leased, leased+float64(after.leaseFallbacks-before.leaseFallbacks)), "ratio")
	r.add("raft.commit_p50_ms", float64(commitP50)/1e6, "ms")
	r.add("raft.repair_sends", float64(after.repairSends-before.repairSends), "count")
	r.add("raft.healthy_follower_lag", float64(lagHealthy), "entry")
	r.add("raft.slow_follower_lag", float64(lagSlow), "entry")
	r.add("raft.elections", float64(after.elections-before.elections), "count")

	r.add("rpc.client_calls_per_op", float64(after.calls-before.calls)/float64(max(win.attempted, 1)), "call/op")
	r.add("rpc.client_timeouts", float64(after.timeouts-before.timeouts), "count")
	for i, peer := range []string{"healthy", "slow"} {
		r.add("rpc.outbox_discards."+peer, float64(after.discards[i]-before.discards[i]), "count")
		r.add("rpc.outbox_overflows."+peer, float64(after.overflows[i]-before.overflows[i]), "count")
	}
	r.add("rpc.outbox_depth_max", float64(depthPeak), "msg")

	for _, lc := range layerCosts(w) {
		r.add(lc.name+"_ns", lc.ns, "ns")
		r.add(lc.name+"_allocs", lc.allocs, "alloc/op")
	}

	floor := writeFloor(w)
	r.add("env.write_floor_ms", float64(floor)/1e6, "ms")
	p50, _ := percentile(win.writes, 0.5)
	r.add("env.floor_efficiency", ratio(float64(floor)/1e6, p50), "ratio")

	r.add("proc.sched_latency_p99_us", schedP99(before.sched, after.sched), "us")
	r.add("proc.gc_cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")

	late, _ := percentile(win.late, 0.99)
	r.add("loadgen.late_p99_ms", late, "ms")
	r.add("trace.overhead", ratio(win.throughput(), ref.throughput()), "ratio")
}

// writeFloor is the modeled critical path of one uncontended write,
// from the public defaults of the resource model and the raft config:
// client to leader, leader compute, then the slower of the leader's own
// fsync and a follower round trip (hop, compute, fsync, hop), then the
// reply to the client. Each hop pays the NIC delay on both sides.
func writeFloor(w workload) time.Duration {
	ecfg := env.DefaultConfig()
	client, leader, follower := env.New("client", ecfg), env.New("leader", ecfg), env.New("follower", ecfg)
	rcfg := raft.DefaultConfig("leader", []string{"leader", "follower"})
	hop := func(from, to *env.Env) time.Duration { return from.NetDelayTo(to.Node()) + to.NetDelay() }
	value := make([]byte, w.mix.ValueSize)
	req := &kv.ClientRequest{ClientID: 1000, Seq: 1, Cmd: kv.Command{Op: kv.OpPut, Key: ycsb.Key(0), Value: value}}
	entry := storage.Entry{Index: 1, Term: 1, Data: codec.Marshal(req)}
	replicate := hop(leader, follower) + follower.ComputeCost(rcfg.FollowerComputePerOp) +
		follower.DiskWriteCost(entry.Size()) + hop(follower, leader)
	return hop(client, leader) + leader.ComputeCost(rcfg.LeaderComputePerOp) +
		max(leader.DiskWriteCost(entry.Size()), replicate) + hop(leader, client)
}

type layerCost struct {
	name   string
	ns     float64
	allocs float64
}

// layerCostTime is the benchmark time of each layer-cost measurement.
const layerCostTime = "300ms"

// layerCosts times single calls into the core, codec, kv and metrics
// packages with testing.Benchmark, at the workload's value size.
func layerCosts(w workload) []layerCost {
	testing.Init()
	if err := flag.Set("test.benchtime", layerCostTime); err != nil {
		panic(err) // the flag is registered by testing.Init
	}
	value := make([]byte, w.mix.ValueSize)
	put := kv.Command{Op: kv.OpPut, Key: ycsb.Key(7), Value: value}
	ae := &raft.AppendEntries{Term: 3, Leader: "s1", PrevLogIndex: 41, PrevLogTerm: 3, LeaderCommit: 40,
		Entries: []storage.Entry{{Index: 42, Term: 3, Data: codec.Marshal(&kv.ClientRequest{ClientID: 1000, Seq: 9, Cmd: put})}}}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"core.wakeup", func(b *testing.B) {
			onCoroutine(b, func(co *core.Coroutine) {
				ev := core.NewSignalEvent()
				co.Runtime().Post(ev.Set)
				co.WaitFor(ev, time.Second)
			})
		}},
		{"core.quorum", func(b *testing.B) {
			onCoroutine(b, func(co *core.Coroutine) {
				q := core.NewQuorumEvent(3, 2)
				evs := [3]*core.ResultEvent{}
				for i := range evs {
					evs[i] = core.NewResultEvent("rpc", "p")
					q.AddJudged(evs[i], nil)
				}
				co.Runtime().Post(func() {
					evs[0].Fire(nil, nil)
					evs[1].Fire(nil, nil)
				})
				co.WaitQuorum(q, time.Second)
			})
		}},
		{"codec.append_entries", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codec.Unmarshal(codec.Marshal(ae)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kv.apply", func(b *testing.B) {
			s := kv.NewSessions(kv.NewStore())
			cmds := make([]kv.Command, records)
			for i := range cmds {
				cmds[i] = kv.Command{Op: kv.OpPut, Key: ycsb.Key(uint64(i)), Value: value}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Apply(1, uint64(i+1), cmds[i%len(cmds)])
			}
		}},
		{"metrics.record", func(b *testing.B) {
			h := metrics.NewHistogram()
			for i := 0; i < b.N; i++ {
				h.Record(time.Duration(i&0xfffff) * time.Microsecond)
			}
		}},
	}
	var out []layerCost
	for _, bm := range benches {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		out = append(out, layerCost{name: bm.name, ns: float64(res.T.Nanoseconds()) / float64(max(res.N, 1)),
			allocs: float64(res.MemAllocs) / float64(max(res.N, 1))})
	}
	return out
}

// onCoroutine runs step b.N times on one coroutine of a fresh runtime.
func onCoroutine(b *testing.B, step func(co *core.Coroutine)) {
	rt := core.NewRuntime("layer-cost")
	defer rt.Stop()
	done := make(chan struct{})
	b.ResetTimer()
	rt.Spawn("layer-cost", func(co *core.Coroutine) {
		defer close(done)
		for i := 0; i < b.N; i++ {
			step(co)
		}
	})
	<-done
	b.StopTimer()
}
