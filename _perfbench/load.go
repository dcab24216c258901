package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"depfast/internal/core"
	"depfast/internal/harness"
	"depfast/internal/kv"
	"depfast/internal/raft"
	"depfast/internal/ycsb"
)

// opRec is one client operation, times in nanoseconds since the load
// started. due equals start in a closed loop; in the open loop it is
// the time the schedule said to send.
type opRec struct {
	due, start, end int64
	write, ok       bool
}

// writeRec remembers one Put for the provenance check: the key it
// wrote and, when acknowledged, the time it was called and returned.
type writeRec struct {
	key       string
	acked     bool
	call, ret int64
}

// histRec is one operation of the linearizability history, kept
// compact while the load runs. hdr is the 16-byte provenance header of
// the value written or read: every value is that header followed by
// the same filler, so headers compare exactly as whole values do.
type histRec struct {
	key              string
	call, ret        int64
	hdr              [16]byte
	write, found, ok bool
}

// clientLog is owned by one client coroutine while the load runs and
// read only after that coroutine has exited.
type clientLog struct {
	id      uint64
	ops     []opRec
	writes  []writeRec // index seq-1; seq is stamped into the value
	history []histRec
	// foreign counts reads that returned a value whose filler no write
	// of this benchmark produced.
	foreign int
}

// load drives one cluster: a preload of every record, then the
// workload's closed or open loop.
type load struct {
	c     *cluster
	w     workload
	seed  int64
	fill  []byte // value bytes behind the 16-byte provenance header
	t0    time.Time
	stop  atomic.Bool
	wg    sync.WaitGroup
	logs  []*clientLog
	spans atomic.Pointer[spanLog] // client.do spans while tracing
}

func newLoad(c *cluster, w workload, seed int64) *load {
	fill := make([]byte, w.mix.ValueSize)
	for i := range fill {
		fill[i] = byte('a' + i%26)
	}
	return &load{c: c, w: w, seed: seed, fill: fill, t0: time.Now()}
}

// since converts a wall time to nanoseconds since the load started.
func (l *load) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *load) newLog(id uint64) *clientLog {
	lg := &clientLog{id: id}
	l.logs = append(l.logs, lg)
	return lg
}

// spawn runs fn on client runtime i with its own raft client.
func (l *load) spawn(i int, lg *clientLog, fn func(co *core.Coroutine, cl *raft.Client)) {
	rt := l.c.clientRTs[i%len(l.c.clientRTs)]
	ep := l.c.clientEPs[i%len(l.c.clientEPs)]
	order := l.c.order()
	l.wg.Add(1)
	rt.Spawn("bench-client", func(co *core.Coroutine) {
		defer l.wg.Done()
		fn(co, raft.NewClient(lg.id, ep, order, 3*time.Second))
	})
}

// preloadClients is the number of writers that install every record
// before the workload starts, so reads find 256-byte values.
const preloadClients = 64

// preload writes each of the workload's records once and waits for it.
func (l *load) preload() error {
	records := l.w.mix.Records
	var failed atomic.Int64
	for j := 0; j < preloadClients; j++ {
		j := j
		lg := l.newLog(uint64(100 + j))
		l.spawn(j, lg, func(co *core.Coroutine, cl *raft.Client) {
			for k := j; k < records; k += preloadClients {
				if !l.issue(co, cl, lg, ycsb.Op{Type: ycsb.Insert, Key: ycsb.Key(uint64(k))}, time.Now()) {
					failed.Add(1)
				}
			}
		})
	}
	if !waitGroup(&l.wg, 60*time.Second) {
		return fmt.Errorf("preload did not finish within 60s")
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d writes failed", n)
	}
	return nil
}

// startClosed launches n closed-loop clients: each sends its next
// request when the previous one completes, until wait.
func (l *load) startClosed(n int) {
	for i := 0; i < n; i++ {
		lg := l.newLog(uint64(1000 + i))
		gen := ycsb.NewGenerator(l.w.mix, l.seed*1000003+int64(i))
		l.spawn(i, lg, func(co *core.Coroutine, cl *raft.Client) {
			for !l.stop.Load() {
				l.issue(co, cl, lg, gen.Next(), time.Now())
				if co.Runtime().Stopped() {
					return
				}
			}
		})
	}
}

// startOpen launches the open loop: request k is due at t0 + k/rate
// and is sent by worker k mod workers, which sleeps until it is due or
// sends late when its previous request is still outstanding. Latency is
// timed from the due time. No request is due at or after end.
func (l *load) startOpen(rate float64, workers int, end time.Time) {
	start := time.Now()
	for i := 0; i < workers; i++ {
		i := i
		lg := l.newLog(uint64(1000 + i))
		gen := ycsb.NewGenerator(l.w.mix, l.seed*1000003+int64(i))
		l.spawn(i, lg, func(co *core.Coroutine, cl *raft.Client) {
			for k := i; ; k += workers {
				due := start.Add(time.Duration(float64(k) / rate * 1e9))
				if !due.Before(end) || co.Runtime().Stopped() {
					return
				}
				if d := time.Until(due); d > 0 {
					if co.Sleep(d) != nil {
						return
					}
				}
				l.issue(co, cl, lg, gen.Next(), due)
			}
		})
	}
}

// issue sends one operation and records it. A Put's value carries the
// client id and a per-client sequence number in its first 16 bytes, so
// every stored value names the write that produced it.
func (l *load) issue(co *core.Coroutine, cl *raft.Client, lg *clientLog, op ycsb.Op, due time.Time) bool {
	cmd := kv.Command{Op: kv.OpGet, Key: op.Key}
	write := op.Type != ycsb.Read
	if write {
		v := append([]byte(nil), l.fill...)
		binary.LittleEndian.PutUint64(v[0:8], lg.id)
		binary.LittleEndian.PutUint64(v[8:16], uint64(len(lg.writes)+1))
		cmd = kv.Command{Op: kv.OpPut, Key: op.Key, Value: v}
		lg.writes = append(lg.writes, writeRec{key: op.Key})
	}
	start := time.Now()
	res, err := cl.Do(co, cmd)
	end := time.Now()
	rec := opRec{due: l.since(due), start: l.since(start), end: l.since(end), write: write, ok: err == nil}
	lg.ops = append(lg.ops, rec)
	if write && err == nil {
		w := &lg.writes[len(lg.writes)-1]
		w.acked, w.call, w.ret = true, rec.start, rec.end
	}
	if !write && err == nil && res.Found && !bytes.Equal(res.Value[min(16, len(res.Value)):], l.fill[16:]) {
		lg.foreign++
	}
	if l.w.lin {
		h := histRec{key: op.Key, call: rec.start, ret: rec.end, write: write, ok: err == nil}
		if write {
			copy(h.hdr[:], cmd.Value)
		} else if err == nil && res.Found {
			h.found = true
			copy(h.hdr[:], res.Value)
		}
		lg.history = append(lg.history, h)
	}
	if sl := l.spans.Load(); sl != nil {
		tag := "get"
		if write {
			tag = "put"
		}
		if err != nil {
			tag += ".failed"
		}
		sl.add(span{name: "client.do", tag: tag, from: co.Runtime().Name(), to: cl.Leader()}, start, end)
	}
	return err == nil
}

// wait ends the closed loop and waits until every client has finished
// its in-flight request (open-loop workers end on their own).
func (l *load) wait(timeout time.Duration) bool {
	l.stop.Store(true)
	return waitGroup(&l.wg, timeout)
}

func waitGroup(wg *sync.WaitGroup, timeout time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// history expands the recorded operations for harness.CheckLinearizable.
func (l *load) history() []harness.HOp {
	var out []harness.HOp
	for _, lg := range l.logs {
		client := fmt.Sprint(lg.id)
		for _, h := range lg.history {
			op := harness.HOp{Client: client, Kind: harness.HGet, Key: h.key,
				Call: l.t0.Add(time.Duration(h.call)), Return: l.t0.Add(time.Duration(h.ret)), Maybe: !h.ok}
			hdr := append([]byte(nil), h.hdr[:]...)
			if h.write {
				op.Kind, op.Value = harness.HPut, hdr
			} else if h.found {
				op.OutFound, op.OutValue = true, hdr
			}
			out = append(out, op)
		}
	}
	return out
}

// writers maps a client id to its log, for the provenance check.
func (l *load) writers() map[uint64]*clientLog {
	m := make(map[uint64]*clientLog, len(l.logs))
	for _, lg := range l.logs {
		m[lg.id] = lg
	}
	return m
}
