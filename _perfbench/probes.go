package main

import (
	"math"
	rm "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"depfast/internal/metrics"
)

// Runtime metrics the benchmark reads; see runtime/metrics.
const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmSchedLat = "/sched/latencies:seconds"
	rmLiveHeap = "/gc/heap/live:bytes"
)

// probe is a point-in-time reading of every counter the benchmark
// differences across a window.
type probe struct {
	cpu        time.Duration // process user + system CPU
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	sched      *rm.Float64Histogram

	msgs, bytes, sendNs, appends, entries int64

	walStalls, leaseReads, leaseFallbacks, repairSends, elections int64
	calls, timeouts                                               int64
	// discards and overflows of the leader's outbox toward the healthy
	// and the slow-designated follower.
	discards, overflows [2]int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeProbe(c *cluster) probe {
	s := []rm.Sample{{Name: rmAllocs}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat}}
	rm.Read(s)
	p := probe{
		cpu:        processCPU(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		sched:      s[3].Value.Float64Histogram(),
		msgs:       c.tap.msgs.Load(),
		bytes:      c.tap.bytes.Load(),
		sendNs:     c.tap.sendNs.Load(),
		appends:    c.tap.appends.Load(),
		entries:    c.tap.entries.Load(),
	}
	for _, srv := range c.servers {
		p.walStalls += srv.WALStalls.Value()
		p.leaseReads += srv.LeaseReads.Value()
		p.leaseFallbacks += srv.LeaseFallbacks.Value()
		p.repairSends += srv.RepairSends.Value()
		p.elections += srv.Elections.Value()
	}
	for _, ep := range c.clientEPs {
		p.calls += ep.Calls.Value()
		p.timeouts += ep.Timeouts.Value()
	}
	leader := c.servers[c.leader]
	for i, peer := range []string{c.healthy, c.slow} {
		if ob := leader.Outbox(peer); ob != nil {
			p.discards[i] = ob.Discards.Value()
			p.overflows[i] = ob.Overflows.Value()
		}
	}
	return p
}

// schedP99 is the 99th percentile, in microseconds, of the scheduling
// latencies recorded between two probes (upper bucket bound).
func schedP99(before, after *rm.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= target {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// sampler polls the live heap and the leader's outbox depths while the
// window is open, keeping the peaks.
type sampler struct {
	stopCh    chan struct{}
	done      sync.WaitGroup
	heapPeak  uint64
	depthPeak int64
}

const sampleEvery = 10 * time.Millisecond

func startSampler(c *cluster) *sampler {
	s := &sampler{stopCh: make(chan struct{})}
	leader := c.servers[c.leader]
	var depths []*metrics.Gauge
	for _, peer := range c.followers() {
		if ob := leader.Outbox(peer); ob != nil {
			depths = append(depths, ob.Depth)
		}
	}
	sample := []rm.Sample{{Name: rmLiveHeap}}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			rm.Read(sample)
			s.heapPeak = max(s.heapPeak, sample[0].Value.Uint64())
			for _, d := range depths {
				s.depthPeak = max(s.depthPeak, d.Value())
			}
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak live heap in bytes and the
// peak outbox depth in messages.
func (s *sampler) stop() (uint64, int64) {
	close(s.stopCh)
	s.done.Wait()
	return s.heapPeak, s.depthPeak
}

// lags reports how many entries the healthy and the slow-designated
// follower's commit index trail the leader's.
func (c *cluster) lags() (healthy, slow int64) {
	lc, _ := c.servers[c.leader].CommitInfo()
	lag := func(name string) int64 {
		fc, _ := c.servers[name].CommitInfo()
		return max(0, int64(lc)-int64(fc))
	}
	return lag(c.healthy), lag(c.slow)
}
