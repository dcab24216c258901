package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/metrics"
	"depfast/internal/ycsb"
)

// workload is one traffic mix against the cluster. Exactly one of
// clients (closed loop) and rate (open loop) is set.
type workload struct {
	name    string
	clients int
	rate    float64
	mix     ycsb.Workload
	lease   bool // ReadIndex + LeaderLease on every server
	fault   bool // disk-slow fault on one follower at the window's midpoint
	lin     bool // linearizability check over the recorded history
}

const (
	records   = 2000
	valueSize = 256
	// warmup runs the workload before any window opens.
	warmup = 1500 * time.Millisecond
	// openWorkers bounds the open loop's outstanding requests.
	openWorkers = 256
	// slices is how many equal parts the window is cut into for the
	// per-slice medians of endToEnd.
	slices = 3
	// drainTimeout bounds the wait for in-flight and overdue requests
	// after the window closes.
	drainTimeout = 60 * time.Second
)

var workloads = []workload{
	// Capacity regime: 256 closed-loop Put clients keep the commit path,
	// outbox window, fan-out, codec and scheduler busy.
	{
		name:    "write-saturate",
		clients: 256,
		mix:     ycsb.PaperWrite(records, valueSize),
	},
	// Latency floor: leader-lease reads skip replication, so commit-path
	// changes should leave them alone; the 5% writes see batch-of-one
	// commit latency.
	{
		name:    "read-lease",
		clients: 16,
		mix: ycsb.Workload{Records: records, ReadProp: 0.95, UpdateProp: 0.05,
			Dist: ycsb.ZipfianDist, ValueSize: valueSize},
		lease: true,
		lin:   true,
	},
	// The paper's claim: open loop at about half of capacity, and a
	// disk-slow fault lands on one follower under load halfway through
	// the window. Not in BENCHMARK.json: the onset outcome is bimodal
	// (see NOTES.md).
	{
		name:  "slow-follower",
		rate:  1000,
		mix:   ycsb.PaperWrite(records, valueSize),
		fault: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// clientRuntimes spreads client coroutines over no more runtimes than
// the host has CPUs, and at most two so the workload is the same on
// larger hosts.
func clientRuntimes() int {
	return max(1, min(2, runtime.NumCPU()))
}

// runWorkload sets up a cluster, preloads it, runs the workload through
// warmup and the measurement window, checks the final state and returns
// the report. A traced run first measures an untraced reference window
// a third as long, then turns tracing on for the measurement window.
func runWorkload(w workload, seed int64, window time.Duration, traced bool) (*report, error) {
	var reg *metrics.Registry
	if traced {
		reg = metrics.NewRegistry(1, time.Hour)
	}
	c, setupS, err := setUp(w, seed, reg)
	if err != nil {
		return nil, err
	}
	open := true
	defer func() {
		if open {
			c.close()
		}
	}()
	c.addClients(clientRuntimes())
	ld := newLoad(c, w, seed)
	if err := ld.preload(); err != nil {
		return nil, err
	}

	var ref time.Duration
	if traced {
		ref = window / 3
	}
	begin := time.Now()
	if w.rate > 0 {
		ld.startOpen(w.rate, openWorkers, begin.Add(warmup+ref+window))
	} else {
		ld.startClosed(w.clients)
	}
	sleepUntil(begin.Add(warmup))
	refStart := time.Now()
	sleepUntil(refStart.Add(ref))
	var spans *spanLog
	if traced {
		spans = newSpanLog(ld.t0)
		c.tap.spans = spans
		ld.spans.Store(spans)
		c.tap.tracing.Store(true)
		reg.Histogram("raft.commit.latency").Reset()
	}

	// The window is cut into equal slices with a probe at each boundary;
	// the fault, if any, lands at the window's midpoint.
	ws := time.Now()
	marks, probes := []time.Time{ws}, []probe{takeProbe(c)}
	smp := startSampler(c)
	startHealthy, startSlow := c.lags()
	var mid time.Time
	var onset [2]int64
	for i := 1; i <= slices; i++ {
		next := ws.Add(window * time.Duration(i) / slices)
		if w.fault && mid.IsZero() && next.After(ws.Add(window/2)) {
			sleepUntil(ws.Add(window / 2))
			mid = time.Now()
			onset[0], onset[1] = c.lags()
			failslow.Apply(c.envs[c.slow], failslow.DiskSlow, failslow.DefaultIntensity())
		}
		sleepUntil(next)
		marks, probes = append(marks, time.Now()), append(probes, takeProbe(c))
	}
	we, before, after := marks[slices], probes[0], probes[slices]
	heapPeak, depthPeak := smp.stop()
	lagHealthy, lagSlow := c.lags()
	var commitP50 time.Duration
	if traced {
		c.tap.tracing.Store(false)
		ld.spans.Store(nil)
		commitP50 = reg.Histogram("raft.commit.latency").Snapshot().P50
	}
	if !ld.wait(drainTimeout) {
		return nil, fmt.Errorf("clients still busy %v after the window closed", drainTimeout)
	}

	rep := &report{workload: w.name, traced: traced, correct: true}
	win := ld.window(ld.since(ws), ld.since(we), w.rate > 0)
	rep.attempted, rep.failed = win.attempted, win.failed
	rep.checks, rep.correct = verify(c, ld, w)
	rep.checks = append(rep.checks, followerNote([2]int64{startHealthy, startSlow}, [2]int64{lagHealthy, lagSlow}, after.discards))
	var faultP50 float64
	if w.fault {
		p1, ok1 := percentile(ld.window(ld.since(ws), ld.since(mid), true).writes, 0.5)
		p2, ok2 := percentile(ld.window(ld.since(mid), ld.since(we), true).writes, 0.5)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("fault_p50_ratio: too few writes in a half of the window")
		}
		faultP50 = p2 / p1
		rep.checks = append(rep.checks, onsetNote(faultP50, onset))
	}
	c.close()
	open = false

	if !traced {
		var parts []windowStats
		for i := 0; i < slices; i++ {
			parts = append(parts, ld.window(ld.since(marks[i]), ld.since(marks[i+1]), w.rate > 0))
		}
		if err := endToEnd(rep, win, parts, probes, heapPeak, setupS); err != nil {
			return nil, err
		}
		if w.fault {
			// Figure 3's drift within one run.
			rep.add("fault_p50_ratio", faultP50, "ratio")
		}
		return rep, nil
	}
	refWin := ld.window(ld.since(refStart), ld.since(ws), w.rate > 0)
	perLayer(rep, w, win, refWin, before, after, depthPeak, lagHealthy, lagSlow, commitP50)
	kept, dropped := spans.counts()
	rep.extra = append(rep.extra, metric{name: "trace.spans", value: float64(kept), unit: "count"},
		metric{name: "trace.spans_dropped", value: float64(dropped), unit: "count"})
	if err := spans.write(fmt.Sprintf(".bench_build/spans-%s.jsonl", w.name)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// windowStats are the operations of one window. In a closed loop an
// operation belongs to the window it completed in; in the open loop to
// the window it was due in, and its latency runs from its due time.
type windowStats struct {
	seconds            float64
	completed          int64 // successful completions inside the window
	attempted, failed  int64
	all, writes, reads []float64 // latencies in ms, sorted
	late               []float64 // open loop: send time minus due time, ms, sorted
}

func (l *load) window(from, to int64, byDue bool) windowStats {
	ws := windowStats{seconds: float64(to-from) / 1e9}
	for _, lg := range l.logs {
		if lg.id < 1000 {
			continue // preload writers
		}
		for _, op := range lg.ops {
			if op.ok && op.end >= from && op.end < to {
				ws.completed++
			}
			at := op.end
			if byDue {
				at = op.due
			}
			if at < from || at >= to {
				continue
			}
			ws.attempted++
			if byDue {
				ws.late = append(ws.late, float64(op.start-op.due)/1e6)
			}
			if !op.ok {
				ws.failed++
				continue
			}
			ms := float64(op.end-op.due) / 1e6
			ws.all = append(ws.all, ms)
			if op.write {
				ws.writes = append(ws.writes, ms)
			} else {
				ws.reads = append(ws.reads, ms)
			}
		}
	}
	for _, s := range [][]float64{ws.all, ws.writes, ws.reads, ws.late} {
		sort.Float64s(s)
	}
	return ws
}

func (ws windowStats) throughput() float64 { return float64(ws.completed) / ws.seconds }

// percentile is the nearest-rank q-quantile of sorted samples. ok is
// false when fewer than ten samples lie beyond it, so the value would
// rest on too few observations.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-(idx+1) < 10 {
		return 0, false
	}
	return sorted[idx], true
}

// median of vals; false when vals is empty.
func median(vals []float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	n := len(vals)
	return (vals[(n-1)/2] + vals[n/2]) / 2, true
}

// endToEnd fills the metrics a user of the system sees. Throughput,
// latency percentiles and CPU per op are medians over the window's
// slices, so a burst of host noise confined to one slice does not move
// them; counts, allocation and peak memory cover the whole window.
func endToEnd(r *report, win windowStats, parts []windowStats, probes []probe, heapPeak uint64, setupS float64) error {
	var tputs, cpus []float64
	for i, s := range parts {
		tputs = append(tputs, s.throughput())
		if s.completed > 0 {
			cpus = append(cpus, float64(probes[i+1].cpu-probes[i].cpu)/1e6/(float64(s.completed)/1000))
		}
	}
	tput, _ := median(tputs)
	r.add("throughput_ops", tput, "op/s")
	for _, p := range []struct {
		name     string
		pick     func(windowStats) []float64
		q        float64
		required bool
	}{
		{"p50_ms", func(s windowStats) []float64 { return s.all }, 0.50, true},
		{"p99_ms", func(s windowStats) []float64 { return s.all }, 0.99, true},
		{"write_p50_ms", func(s windowStats) []float64 { return s.writes }, 0.50, true},
		{"write_p99_ms", func(s windowStats) []float64 { return s.writes }, 0.99, true},
		{"read_p50_ms", func(s windowStats) []float64 { return s.reads }, 0.50, false},
		{"read_p99_ms", func(s windowStats) []float64 { return s.reads }, 0.99, false},
	} {
		var vals []float64
		for _, s := range parts {
			if v, ok := percentile(p.pick(s), p.q); ok {
				vals = append(vals, v)
			}
		}
		v, ok := median(vals)
		m := metric{name: p.name, value: v, unit: "ms", n: len(p.pick(win))}
		switch {
		case ok && p.required:
			r.metrics = append(r.metrics, m)
		case ok:
			r.extra = append(r.extra, m)
		case p.required:
			return fmt.Errorf("%s: no slice of the window has enough samples (%d in all) for the %g quantile; lengthen --seconds", p.name, m.n, p.q)
		}
	}
	r.add("success_ratio", float64(win.attempted-win.failed)/float64(max(win.attempted, 1)), "ratio")
	r.extra = append(r.extra, metric{name: "error_ratio", value: float64(win.failed) / float64(max(win.attempted, 1)), unit: "ratio"})
	cpu, _ := median(cpus)
	r.add("cpu_ms_per_kop", cpu, "ms")
	before, after := probes[0], probes[len(probes)-1]
	r.add("alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(win.completed), "KiB")
	r.add("mem_peak_mb", float64(heapPeak)/(1<<20), "MiB")
	r.add("setup_s", setupS, "s")
	return nil
}

// followerNote reports each follower's commit lag behind the leader at
// the window's start and end, and the leader's outbox discards toward
// each since the cluster started.
func followerNote(start, end, discards [2]int64) string {
	return fmt.Sprintf("followers: commit lag in entries healthy/slow-designated follower at window start %d/%d, at end %d/%d; leader outbox discards since start %d/%d",
		start[0], start[1], end[0], end[1], discards[0], discards[1])
}

// onsetNote names how the cluster took the fault, from the faulted
// half's write p50 over the healthy half's: near 1 it was tolerated;
// collapsed, it is many times higher because the healthy follower was
// stranded behind repair and every quorum waited on the slow disk. The
// followers' lags at onset show which follower carried the quorums.
func onsetNote(ratio float64, onset [2]int64) string {
	mode := "tolerated"
	if ratio > 2 {
		mode = "COLLAPSED"
	}
	return fmt.Sprintf("onset %s: faulted-half write p50 is %.2fx the healthy half's; commit lag in entries healthy/slow-designated follower at onset %d/%d",
		mode, ratio, onset[0], onset[1])
}
