// Package transport moves framed messages between nodes. Two
// implementations share one interface: an in-memory network with a
// per-node latency model and fault-injection hooks (the default for
// experiments — deterministic and laptop-scale), and a TCP transport
// for real multi-process deployments. Both carry the same codec bytes,
// so the serialization path is identical.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"depfast/internal/env"
	"depfast/internal/metrics"
)

// Handler receives a message on the destination node's dispatcher
// goroutine. Implementations must not block for long; hand off to a
// runtime via Post. payload must not be modified, and views into it
// (slices of it that a decoder returns without copying) must not
// outlive the work the handler starts for the message: anything kept
// longer is copied out.
type Handler func(from string, payload []byte)

// Transport is the sender-side interface used by the RPC layer.
type Transport interface {
	// Send delivers payload from node from to node to, asynchronously.
	// Errors are best-effort: an unknown destination errors, a dropped
	// message on a partitioned link does not.
	//
	// A frame is immutable once sent: the in-memory network hands the
	// very same slice to the receiver's Handler, so neither the sender
	// nor the receiver may write to it afterwards, and receivers decode
	// it into views that must not outlive their handler.
	Send(from, to string, payload []byte) error
	// Close stops all delivery.
	Close()
}

// Common transport errors.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrClosed      = errors.New("transport: closed")
)

// Network is the in-memory transport. Message latency is
// senderEnv.NetDelayTo(dst) + receiverEnv.NetDelay(); injecting a NIC
// delay on one node (Table 1, network slowness) therefore slows both
// its inbound and outbound traffic, like tc netem on the interface,
// while a per-peer one-way delay (env.SetNetDelayTo) slows only the
// sender's flow toward that destination.
type Network struct {
	mu     sync.Mutex
	nodes  map[string]*memNode
	envs   map[string]*env.Env
	down   map[[2]string]bool
	loss   map[string]float64 // per-node message loss probability
	rng    uint64             // xorshift state for loss decisions
	closed bool

	Sent      *metrics.Counter
	Delivered *metrics.Counter
	Dropped   *metrics.Counter
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{
		nodes:     make(map[string]*memNode),
		envs:      make(map[string]*env.Env),
		down:      make(map[[2]string]bool),
		loss:      make(map[string]float64),
		rng:       0x9e3779b97f4a7c15,
		Sent:      metrics.NewCounter("net.sent"),
		Delivered: metrics.NewCounter("net.delivered"),
		Dropped:   metrics.NewCounter("net.dropped"),
	}
}

// Register attaches a node with its resource environment and message
// handler, and starts its dispatcher. Re-registering a name replaces
// the previous node.
func (n *Network) Register(node string, e *env.Env, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.nodes[node]; ok {
		prev.close()
	}
	mn := newMemNode(node, h, n.Delivered)
	n.nodes[node] = mn
	n.envs[node] = e
	go mn.dispatch()
}

// Unregister detaches a node; in-flight messages to it are dropped.
func (n *Network) Unregister(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mn, ok := n.nodes[node]; ok {
		mn.close()
		delete(n.nodes, node)
		delete(n.envs, node)
	}
}

// SetLinkDown partitions (or heals) the link between a and b in both
// directions.
func (n *Network) SetLinkDown(a, b string, isDown bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[[2]string{a, b}] = isDown
	n.down[[2]string{b, a}] = isDown
}

// SetLossRate drops messages to or from node with probability p in
// [0,1] — lossy-network injection, independent of partitions.
func (n *Network) SetLossRate(node string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p <= 0 {
		delete(n.loss, node)
		return
	}
	if p > 1 {
		p = 1
	}
	n.loss[node] = p
}

// lossDraw returns a uniform float in [0,1); callers hold n.mu.
func (n *Network) lossDraw() float64 {
	v := n.rng
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	n.rng = v
	return float64(v>>11) / float64(1<<53)
}

// Send implements Transport.
func (n *Network) Send(from, to string, payload []byte) error {
	dst, delay, drop, err := n.route(from, to)
	if err != nil {
		return err
	}
	if drop {
		n.Dropped.Inc()
		return nil
	}
	n.Sent.Inc()
	dst.enqueue(from, payload, time.Now().Add(delay))
	return nil
}

// route decides one send under the lock: the destination node, the
// link's modeled delay, and whether the partition/loss model dropped
// the message silently (like the wire would).
func (n *Network) route(from, to string) (dst *memNode, delay time.Duration, drop bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, 0, false, ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if n.down[[2]string{from, to}] {
		return nil, 0, true, nil // partitioned links drop silently
	}
	if p := n.loss[from] + n.loss[to]; p > 0 && n.lossDraw() < p {
		return nil, 0, true, nil // lossy link ate the message
	}
	if e, ok := n.envs[from]; ok {
		// Sender-side latency is directional: an asymmetric one-way
		// delay toward this destination slows only this flow, while the
		// reverse path and other peers stay at the NIC baseline.
		delay += e.NetDelayTo(to)
	}
	if e, ok := n.envs[to]; ok {
		delay += e.NetDelay()
	}
	return dst, delay, false, nil
}

// Close implements Transport.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, mn := range n.nodes {
		mn.close()
	}
}

// delivery is one in-flight message.
type delivery struct {
	from    string
	payload []byte
	at      time.Time
	seq     uint64
}

func (d *delivery) before(o *delivery) bool {
	if !d.at.Equal(o.at) {
		return d.at.Before(o.at)
	}
	return d.seq < o.seq
}

// delivHeap is a min-heap of deliveries by (at, seq), held by value so
// queueing a message allocates nothing once the slice has grown.
type delivHeap []delivery

func (h *delivHeap) push(d delivery) {
	*h = append(*h, d)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *delivHeap) pop() delivery {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = delivery{} // drop the payload reference
	q = q[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && q[l].before(&q[small]) {
			small = l
		}
		if r := l + 1; r < n && q[r].before(&q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// memNode is one registered node: a delay queue plus a dispatcher.
type memNode struct {
	name      string
	h         Handler
	delivered *metrics.Counter

	mu     sync.Mutex
	queue  delivHeap
	seq    uint64
	wake   chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newMemNode(name string, h Handler, delivered *metrics.Counter) *memNode {
	return &memNode{
		name:      name,
		h:         h,
		delivered: delivered,
		wake:      make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
}

func (mn *memNode) enqueue(from string, payload []byte, at time.Time) {
	mn.mu.Lock()
	mn.seq++
	mn.queue.push(delivery{from: from, payload: payload, at: at, seq: mn.seq})
	mn.mu.Unlock()
	select {
	case mn.wake <- struct{}{}:
	default:
	}
}

func (mn *memNode) close() { mn.once.Do(func() { close(mn.closed) }) }

// dispatch delivers queued messages at their due times, in order. One
// timer serves every wait of the node's lifetime.
func (mn *memNode) dispatch() {
	tm := time.NewTimer(time.Hour)
	stopTimer(tm)
	defer tm.Stop()
	for {
		msg, wait, state := mn.pop()
		switch state {
		case queueEmpty:
			select {
			case <-mn.wake:
			case <-mn.closed:
				return
			}
		case queueDue:
			mn.delivered.Inc()
			mn.h(msg.from, msg.payload)
		default:
			tm.Reset(wait)
			select {
			case <-mn.wake: // an earlier message may have arrived
				stopTimer(tm)
			case <-tm.C:
			case <-mn.closed:
				return
			}
		}
	}
}

// stopTimer stops tm and drains a tick that fired before Stop, so the
// next Reset starts clean under pre-Go-1.23 timer semantics too.
func stopTimer(tm *time.Timer) {
	if !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
}

// Queue states reported by pop.
const (
	queueEmpty = iota
	queueDue
	queueWaiting
)

// pop takes the queue's next due delivery under the lock: a message
// when the head is due now, the wait until it is due when it is not,
// or queueEmpty when there is nothing queued.
func (mn *memNode) pop() (msg delivery, wait time.Duration, state int) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	if len(mn.queue) == 0 {
		return delivery{}, 0, queueEmpty
	}
	d := time.Until(mn.queue[0].at)
	if d <= 0 {
		return mn.queue.pop(), 0, queueDue
	}
	return delivery{}, d, queueWaiting
}
