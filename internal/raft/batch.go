package raft

import (
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/storage"
	"depfast/internal/xtrace"
)

// pendingProposal is one client command awaiting a batched commit.
type pendingProposal struct {
	data []byte
	done *core.SignalEvent
	res  kv.Result
	err  error

	// tc is the request's causal trace context; enq is when it joined
	// the committer queue, so batching delay shows up as a queue span.
	tc  xtrace.Context
	enq time.Time
}

// enqueueProposal hands the command to the committer and waits for its
// outcome; the handler coroutine still waits on a purely local event.
func (s *Server) enqueueProposal(co *core.Coroutine, m *kv.ClientRequest, tc xtrace.Context) codec.Message {
	p := &pendingProposal{data: codec.Marshal(m), done: core.NewSignalEvent(),
		tc: tc, enq: time.Now()}
	s.propQ.Push(p)
	if co.WaitFor(p.done, s.cfg.CommitTimeout) != core.WaitReady {
		return &kv.ClientResponse{OK: false, Err: ErrCommitTimeout.Error()}
	}
	if p.err != nil {
		return &kv.ClientResponse{OK: false, NotLeader: p.err == ErrDeposed,
			LeaderHint: s.leaderHint, Err: p.err.Error()}
	}
	return &kv.ClientResponse{OK: true, Found: p.res.Found, Value: p.res.Value, Pairs: p.res.Pairs}
}

// committerLoop drains queued proposals into batched commits while
// this node leads term. Each batch is one log append, one
// AppendEntries per follower, and one QuorumEvent wait — the same
// DepFast discipline with per-request costs amortized.
func (s *Server) committerLoop(co *core.Coroutine, term uint64) {
	defer s.failQueued(ErrDeposed)
	for s.role == Leader && s.term == term && !s.stopped {
		batch, res := s.propQ.DrainWaitTimeout(co, 100*time.Millisecond)
		if res == core.WaitStopped {
			return
		}
		for len(batch) > 0 {
			n := len(batch)
			if max := s.cfg.RepairBatch; n > max {
				n = max
			}
			s.proposeBatch(co, term, batch[:n])
			batch = batch[n:]
		}
	}
}

// failQueued resolves everything still queued with err.
func (s *Server) failQueued(err error) {
	for {
		p, ok := s.propQ.TryPop()
		if !ok {
			return
		}
		p.err = err
		p.done.Set()
	}
}

// stallDirtyWAL enrolls a fresh append's flush event and, once more
// than MaxDirtyAppends are un-fsynced, takes a bounded wait on the
// oldest — the write stall that keeps a fail-slow disk's dirty backlog
// explicit and bounded. Quorums carried by healthy followers would
// otherwise let the leader run arbitrarily far ahead of its own
// durability, hiding the fault instead of surfacing it to the
// detectors and the clients of this one shard.
func (s *Server) stallDirtyWAL(co *core.Coroutine, fsync *core.ResultEvent) {
	if s.cfg.MaxDirtyAppends < 0 {
		return
	}
	s.dirtyFsyncs = append(s.dirtyFsyncs, fsync)
	for len(s.dirtyFsyncs) > s.cfg.MaxDirtyAppends {
		oldest := s.dirtyFsyncs[0]
		s.dirtyFsyncs = s.dirtyFsyncs[1:]
		if !oldest.Ready() {
			s.WALStalls.Inc()
		}
		if co.WaitFor(oldest, s.cfg.DiskWaitTimeout) == core.WaitStopped {
			return
		}
	}
}

// admitDirtyWAL is the admission-side variant of the write stall used
// by the unbatched propose path: it waits for a free dirty-append slot
// BEFORE the caller appends, so the append and its replication fan-out
// run back to back without yielding. (The batched committer stalls
// after appending instead — it is a single coroutine, so its fan-outs
// cannot reorder.)
func (s *Server) admitDirtyWAL(co *core.Coroutine) {
	if s.cfg.MaxDirtyAppends < 0 {
		return
	}
	for len(s.dirtyFsyncs) >= s.cfg.MaxDirtyAppends && s.cfg.MaxDirtyAppends > 0 {
		oldest := s.dirtyFsyncs[0]
		s.dirtyFsyncs = s.dirtyFsyncs[1:]
		if !oldest.Ready() {
			s.WALStalls.Inc()
		}
		if co.WaitFor(oldest, s.cfg.DiskWaitTimeout) == core.WaitStopped {
			return
		}
	}
}

// enrollDirtyFsync registers a fresh append's flush event with the
// dirty-WAL backlog tracked by admitDirtyWAL/stallDirtyWAL.
func (s *Server) enrollDirtyFsync(fsync *core.ResultEvent) {
	if s.cfg.MaxDirtyAppends < 0 {
		return
	}
	s.dirtyFsyncs = append(s.dirtyFsyncs, fsync)
}

// proposeBatch appends and replicates one batch.
func (s *Server) proposeBatch(co *core.Coroutine, term uint64, batch []*pendingProposal) {
	fail := func(err error) {
		for _, p := range batch {
			p.err = err
			p.done.Set()
		}
	}
	if s.role != Leader || s.term != term {
		fail(ErrDeposed)
		return
	}
	s.Proposals.Add(int64(len(batch)))
	// Traced members of the batch each get their own copy of the shared
	// stage spans: spans belong to exactly one trace, and every traced
	// request must be able to explain its own latency.
	type tracedProp struct {
		tc       xtrace.Context
		rootID   uint64
		quorumID uint64
		enq      time.Time
	}
	var traced []tracedProp
	if s.trc != nil {
		for _, p := range batch {
			if p.tc.Active() {
				traced = append(traced, tracedProp{tc: p.tc,
					rootID: s.trc.NewSpanID(), quorumID: s.trc.NewSpanID(), enq: p.enq})
			}
		}
	}
	first := s.wal.LastIndex() + 1
	entries := make([]storage.Entry, len(batch))
	for i, p := range batch {
		entries[i] = storage.Entry{Index: first + uint64(i), Term: term, Data: p.data}
	}
	last := first + uint64(len(batch)) - 1
	start := time.Now()
	fsync, err := s.wal.Append(entries)
	if err != nil {
		fail(err)
		return
	}
	var appendDone time.Time
	if s.rec != nil || len(traced) > 0 {
		core.OnEvent(fsync, func() {
			appendDone = time.Now()
			for _, tp := range traced {
				s.trc.Record(tp.tc, xtrace.Span{Parent: tp.quorumID, Name: "wal.fsync",
					Node: s.cfg.ID, Res: xtrace.Disk, Start: start, End: appendDone})
			}
		})
	}
	for _, e := range entries {
		s.cache.Put(e)
	}
	s.persistAppend(entries)
	stallStart := time.Now()
	s.stallDirtyWAL(co, fsync)
	for _, tp := range traced {
		s.recordStall(tp.tc, tp.quorumID, stallStart)
	}
	if s.role != Leader || s.term != term {
		fail(ErrDeposed)
		return
	}

	targets := s.broadcastTargets()
	q := core.NewQuorumEvent(1+len(targets), s.majority())
	q.AddJudged(fsync, nil)
	payload := s.appendPayload(term, first-1, entries)
	for _, p := range targets {
		ev := core.NewResultEvent("rpc", p)
		judge := s.appendJudge(p, last, term)
		for _, tp := range traced {
			judge = s.tracedJudge(judge, tp.tc, tp.quorumID, p)
		}
		q.AddJudged(ev, judge)
		s.outboxes[p].SendPayload(payload, ev, int64(last))
	}
	s.streamToLearners(entries, last, term)
	fanned := time.Now()

	switch co.WaitQuorum(q, s.cfg.CommitTimeout) {
	case core.QuorumOK:
	case core.QuorumStopped:
		fail(ErrStopping)
		return
	case core.QuorumRejected:
		fail(ErrDeposed)
		return
	default:
		fail(ErrCommitTimeout)
		return
	}
	if s.role != Leader || s.term != term {
		fail(ErrDeposed)
		return
	}
	if s.cfg.QuorumDiscard {
		// Voters only: learner catch-up streams are never discarded.
		for _, p := range s.otherVoters() {
			if s.matchIndex[p] < last {
				s.outboxes[p].CancelBelow(int64(last))
			}
		}
	}
	quorumAt := time.Now()
	s.advanceCommit(last)
	for i, p := range batch {
		p.res, _ = s.takeResult(first + uint64(i))
		p.done.Set()
	}
	applyAt := time.Now()
	for _, tp := range traced {
		s.trc.Record(tp.tc, xtrace.Span{Parent: tp.rootID, Name: "batch.queue",
			Node: s.cfg.ID, Res: xtrace.Queue, Start: tp.enq, End: start})
		s.trc.Record(tp.tc, xtrace.Span{ID: tp.quorumID, Parent: tp.rootID, Name: "quorum",
			Node: s.cfg.ID, Res: xtrace.Queue, Start: start, End: quorumAt})
		s.trc.Record(tp.tc, xtrace.Span{Parent: tp.rootID, Name: "apply",
			Node: s.cfg.ID, Res: xtrace.CPU, Start: quorumAt, End: applyAt})
		s.trc.Record(tp.tc, xtrace.Span{ID: tp.rootID, Parent: tp.tc.Span, Name: "commit",
			Node: s.cfg.ID, Res: xtrace.CPU, Start: tp.enq, End: applyAt})
	}
	s.emitCommitSpan(start, appendDone, fanned, quorumAt, last, len(batch))
}
