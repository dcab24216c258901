package raft

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/failslow"
)

// TestStochasticFailSlowSoak drives writes while a seeded schedule of
// transient fail-slow episodes (the §3.3 probability-model direction)
// churns through the followers. Unlike the partition chaos test,
// nothing here ever stops a node — components only get slow — so
// DepFastRaft must keep committing throughout, not merely recover
// afterwards.
func TestStochasticFailSlowSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is seconds-long")
	}
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()

	// Episodes land on the two followers only (the paper's measurement
	// keeps leaders healthy; the detector experiment covers slow
	// leaders). Per follower: exponential quiet gaps (mean 150ms) and
	// episode lengths (mean 400ms, clamped to [1/10, 10]× the mean),
	// each a fault drawn from failslow.Injected, all from one seed.
	const duration = 4 * time.Second
	rng := rand.New(rand.NewSource(99))
	expDur := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		return min(max(d, mean/10), mean*10)
	}
	script := failslow.NewScript(nil, failslow.DefaultIntensity())
	var episodes atomic.Int64
	var timers []*time.Timer
	for _, n := range c.names {
		if n == leader {
			continue
		}
		e := c.envs[n]
		for at := expDur(150 * time.Millisecond); at < duration; {
			f := failslow.Injected[rng.Intn(len(failslow.Injected))]
			end := at + expDur(400*time.Millisecond)
			timers = append(timers,
				time.AfterFunc(at, func() {
					script.Inject(e, f, 1)
					episodes.Add(1)
				}),
				time.AfterFunc(end, func() { script.Clear(e) }))
			at = end + expDur(150*time.Millisecond)
		}
	}
	stopFaults := func() {
		for _, tm := range timers {
			tm.Stop()
		}
		script.ClearAll()
	}
	defer stopFaults()

	const clients = 8
	var ops atomic.Int64
	var errs atomic.Int64
	deadline := time.Now().Add(duration)
	done := make(chan struct{}, clients)
	for ci := 0; ci < clients; ci++ {
		id := uint64(700 + ci)
		cl := c.client(id)
		c.clientRT.Spawn("soak-client", func(co *core.Coroutine) {
			n := 0
			for time.Now().Before(deadline) {
				if err := cl.Put(co, fmt.Sprintf("soak-%d-%d", id, n), []byte("v")); err != nil {
					errs.Add(1)
				} else {
					ops.Add(1)
				}
				n++
			}
			done <- struct{}{}
		})
	}
	for i := 0; i < clients; i++ {
		select {
		case <-done:
		case <-time.After(duration + 90*time.Second):
			t.Fatal("soak clients hung")
		}
	}
	stopFaults()

	total := ops.Load()
	rate := float64(total) / duration.Seconds()
	t.Logf("soak: %d writes (%.0f/s), %d errors, %d fail-slow episodes",
		total, rate, errs.Load(), episodes.Load())
	if episodes.Load() == 0 {
		t.Fatal("no fail-slow episodes were injected; test proved nothing")
	}
	// The cluster must sustain meaningful throughput under continuous
	// fail-slow churn: with 8 closed-loop clients and ~14ms commits the
	// healthy rate is ~550/s; demand at least a third of that.
	if rate < 180 {
		t.Fatalf("throughput collapsed under fail-slow churn: %.0f/s", rate)
	}
	if errs.Load() > total/10 {
		t.Fatalf("error rate too high: %d errors vs %d ops", errs.Load(), total)
	}
}
