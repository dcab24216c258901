package rpc

import (
	"depfast/internal/codec"
	"depfast/internal/core"
)

// Group manages one outbox per peer and offers quorum-shaped
// broadcast: the caller states how many replies it needs, gets back a
// single QuorumEvent, and the framework owns fan-out, flow control,
// and straggler-backlog discard — the clean logic/framework split of
// the paper's §"Logic versus framework".
type Group struct {
	ep       *Endpoint
	peers    []string
	outboxes map[string]*Outbox
	// quarantined peers are skipped by Broadcast so they stop being
	// charged to latency-critical quorum waits; re-admitted only when
	// excluding them would make the requested quorum unsatisfiable.
	quarantined map[string]bool
}

// NewGroup builds outboxes from ep to each peer with the given config.
func NewGroup(ep *Endpoint, peers []string, cfg OutboxConfig) *Group {
	g := &Group{
		ep:          ep,
		peers:       append([]string(nil), peers...),
		outboxes:    make(map[string]*Outbox, len(peers)),
		quarantined: make(map[string]bool),
	}
	for _, p := range peers {
		g.outboxes[p] = NewOutbox(ep, p, cfg)
	}
	return g
}

// Peers returns the group members.
func (g *Group) Peers() []string { return append([]string(nil), g.peers...) }

// Outbox returns the per-peer outbox, for instrumentation.
func (g *Group) Outbox(peer string) *Outbox { return g.outboxes[peer] }

// Judge classifies one peer's reply as ack (true) or reject (false).
type Judge func(peer string, value interface{}, err error) bool

// Quarantine marks peer as excluded from (on=true) or re-admitted to
// (on=false) Broadcast fan-out. Entering quarantine also sheds the
// peer's queued backlog, since nothing latency-critical should wait
// on it draining. Returns the number of messages discarded.
func (g *Group) Quarantine(peer string, on bool) int {
	ob := g.outboxes[peer]
	if ob == nil {
		return 0
	}
	if !on {
		delete(g.quarantined, peer)
		return 0
	}
	if g.quarantined[peer] {
		return 0
	}
	g.quarantined[peer] = true
	n := ob.QueueLen()
	ob.CancelAll()
	return n
}

// Quarantined reports whether peer is currently quarantined.
func (g *Group) Quarantined(peer string) bool { return g.quarantined[peer] }

// targets returns the peers Broadcast will fan out to: everyone not
// quarantined, re-admitting quarantined peers while the requested
// quorum minus selfAcks could not otherwise be met.
func (g *Group) targets(quorum, selfAcks int) []string {
	if len(g.quarantined) == 0 {
		return g.peers
	}
	out := make([]string, 0, len(g.peers))
	var held []string
	for _, p := range g.peers {
		if g.quarantined[p] {
			held = append(held, p)
		} else {
			out = append(out, p)
		}
	}
	for len(out)+selfAcks < quorum && len(held) > 0 {
		out = append(out, held[0])
		held = held[1:]
	}
	return out
}

// Broadcast sends req to every non-quarantined peer and returns a
// QuorumEvent needing `quorum` acks out of targets+selfAcks total;
// selfAcks are counted immediately (e.g. the caller's own durable
// write). class orders the message for DiscardBelow. A nil judge
// treats any non-error reply as an ack. Quarantined peers are skipped
// — and re-admitted only if the quorum would otherwise be
// unsatisfiable — so the caller's quorum math must stay based on full
// membership, not on targets.
func (g *Group) Broadcast(req codec.Message, quorum, selfAcks int, class int64, judge Judge) *core.QuorumEvent {
	targets := g.targets(quorum, selfAcks)
	total := len(targets) + selfAcks
	q := core.NewQuorumEvent(total, quorum)
	for i := 0; i < selfAcks; i++ {
		q.AddAck()
	}
	payload := codec.Marshal(req) // one encoding shared by every target
	for _, p := range targets {
		p := p
		ev := core.NewResultEvent("rpc", p)
		if judge == nil {
			q.AddJudged(ev, nil)
		} else {
			q.AddJudged(ev, func(v interface{}, err error) bool { return judge(p, v, err) })
		}
		g.outboxes[p].SendPayload(payload, ev, class)
	}
	return q
}

// BroadcastMajority is Broadcast with quorum = majority of
// len(peers)+selfAcks.
func (g *Group) BroadcastMajority(req codec.Message, selfAcks int, class int64, judge Judge) *core.QuorumEvent {
	total := len(g.peers) + selfAcks
	return g.Broadcast(req, total/2+1, selfAcks, class, judge)
}

// DiscardBelow applies the quorum-aware discard to every peer whose
// progress predicate reports it has not reached class: queued messages
// with class <= maxClass are dropped. Returns total discards.
func (g *Group) DiscardBelow(maxClass int64, behind func(peer string) bool) int {
	n := 0
	for _, p := range g.peers {
		if behind == nil || behind(p) {
			n += g.outboxes[p].CancelBelow(maxClass)
		}
	}
	return n
}

// QueueBytes sums backlog bytes across peers.
func (g *Group) QueueBytes() int64 {
	var total int64
	for _, ob := range g.outboxes {
		total += ob.QueueBytes()
	}
	return total
}
