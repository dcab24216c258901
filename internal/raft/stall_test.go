package raft

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/failslow"
	"depfast/internal/kv"
)

// TestWriteStallKeepsFanOutInLogOrder drives the leader's dirty-WAL
// write stall with membership changes in the middle of a write burst.
// The leader's disk is fail-slow and only two un-fsynced appends may
// be outstanding, so nearly every append — client write or conf
// change — waits for a stall slot. An append that stalled *after*
// taking its index would let a later write fan out first; followers
// reject an index they cannot chain, two rejects veto the quorum, and
// the write fails as leadership-lost although the leader never
// changed. Every write must instead commit, and every learner must
// join. A conf change only meets a full stall backlog some of the
// time, so several learners join one after another to make the race
// near-certain to be exercised.
func TestWriteStallKeepsFanOutInLogOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a seconds-long fail-slow write burst")
	}
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.MaxDirtyAppends = 2
	}})
	leader := c.waitLeader()
	ls := c.servers[leader]
	term, _, _ := ls.Status()
	spares := []string{"s4", "s5", "s6", "s7", "s8", "s9"}
	for _, sp := range spares {
		addJoiner(c, sp)
	}
	failslow.Apply(c.envs[leader], failslow.DiskSlow, failslow.DefaultIntensity())

	const writers = 16
	const burst = 1500 * time.Millisecond
	var acked, deposed, other atomic.Int64
	deadline := time.Now().Add(burst)
	done := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		id := uint64(900 + w)
		c.clientRT.Spawn("stall-writer", func(co *core.Coroutine) {
			defer func() { done <- struct{}{} }()
			// Raw requests to the leader, not a Client: a Client would
			// retry a leadership-lost reply and hide it.
			for seq := uint64(1); time.Now().Before(deadline); seq++ {
				ev := c.clientEP.Call(leader, &kv.ClientRequest{ClientID: id, Seq: seq,
					Cmd: kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("w%d-%d", id, seq), Value: []byte("v")}})
				if co.WaitFor(ev, 5*time.Second) != core.WaitReady || ev.Err() != nil {
					other.Add(1)
					continue
				}
				switch resp, _ := ev.Value().(*kv.ClientResponse); {
				case resp != nil && resp.OK:
					acked.Add(1)
				case resp != nil && resp.Err == ErrDeposed.Error():
					deposed.Add(1)
				default:
					other.Add(1)
				}
			}
		})
	}

	replies := make([]*MemberChangeReply, len(spares))
	c.onClient(func(co *core.Coroutine) {
		for i, sp := range spares {
			// Let the stall backlog build before each conf change joins it.
			if co.Sleep(150*time.Millisecond) != nil {
				return
			}
			replies[i] = memberChange(c, co, leader, ConfAddLearner, sp)
		}
	})
	for i := 0; i < writers; i++ {
		select {
		case <-done:
		case <-time.After(burst + 30*time.Second):
			t.Fatal("writers hung")
		}
	}

	nowTerm, role, _ := ls.Status()
	t.Logf("acked=%d deposed=%d other=%d stalls=%d",
		acked.Load(), deposed.Load(), other.Load(), ls.WALStalls.Value())
	if nowTerm != term || role != Leader {
		t.Fatalf("leader %s changed during the burst (term %d→%d, role %v); the test proves nothing",
			leader, term, nowTerm, role)
	}
	if ls.WALStalls.Value() == 0 {
		t.Fatal("the write stall never engaged")
	}
	_, learners := ls.Members()
	for i, sp := range spares {
		if r := replies[i]; r == nil || !r.OK {
			t.Errorf("adding learner %s failed: %+v", sp, r)
		} else if !hasMember(learners, sp) {
			t.Errorf("%s is not a learner: %v", sp, learners)
		}
	}
	if n := deposed.Load(); n > 0 {
		t.Fatalf("%d writes failed as leadership-lost under an unchanged leader", n)
	}
	if n := other.Load(); n > 0 {
		t.Fatalf("%d writes failed or timed out", n)
	}
}
