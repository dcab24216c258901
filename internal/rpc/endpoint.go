// Package rpc is DepFast's "framework" networking layer: typed
// request/response messaging whose calls return events instead of
// invoking callbacks, per-peer outboxes with windowed flow control,
// and the quorum-aware discard optimization the paper argues a
// framework can apply once it knows a broadcast only needs a quorum of
// replies.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/metrics"
	"depfast/internal/transport"
)

// RPC completion errors; they surface via ResultEvent.Err and are
// judged as rejects by default quorum judges.
var (
	ErrTimeout         = errors.New("rpc: call expired")
	ErrDiscarded       = errors.New("rpc: discarded by quorum-aware broadcast")
	ErrBacklogOverflow = errors.New("rpc: peer outbox full")
	ErrRemote          = errors.New("rpc: remote handler error")
	ErrClosed          = errors.New("rpc: endpoint closed")
	ErrUnreachable     = errors.New("rpc: peer removed from configuration")
)

// HandlerFunc services one inbound request on a fresh coroutine of the
// endpoint's runtime. Returning a non-nil message sends it as the
// reply; returning nil sends an error reply.
type HandlerFunc func(co *core.Coroutine, from string, req codec.Message) codec.Message

// Endpoint is one node's RPC stack, binding a runtime to a transport.
type Endpoint struct {
	node string
	rt   *core.Runtime
	tr   transport.Transport

	mu          sync.Mutex
	pending     map[uint64]pendingCall
	nextID      uint64
	handlers    map[uint32]handler
	closed      bool
	unreachable map[string]bool

	callTimeout time.Duration
	observer    func(peer string, rtt time.Duration, timedOut bool)
	sweepStop   chan struct{}
	sweepOnce   sync.Once

	Calls    *metrics.Counter
	Timeouts *metrics.Counter
}

type pendingCall struct {
	ev       *core.ResultEvent
	to       string
	sentAt   time.Time
	deadline time.Time
	// ob, when set, is the outbox whose window slot the call holds;
	// completing the call frees it.
	ob *Outbox
}

// handler is a registered HandlerFunc with the coroutine name its
// requests run under.
type handler struct {
	fn   HandlerFunc
	name string
}

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithCallTimeout sets how long an unanswered call may stay pending
// before it is failed with ErrTimeout (default 5s).
func WithCallTimeout(d time.Duration) Option {
	return func(ep *Endpoint) { ep.callTimeout = d }
}

// WithLatencyObserver installs a hook receiving every call's peer and
// round-trip time (timedOut true when the sweeper expired it). This is
// the raw signal for fail-slow peer detection; the hook runs on
// transport/sweeper goroutines and must be cheap and thread-safe.
func WithLatencyObserver(fn func(peer string, rtt time.Duration, timedOut bool)) Option {
	return func(ep *Endpoint) { ep.observer = fn }
}

// NewEndpoint creates the RPC stack for node on rt over tr. The caller
// must route the node's inbound transport messages to
// (*Endpoint).TransportHandler.
func NewEndpoint(node string, rt *core.Runtime, tr transport.Transport, opts ...Option) *Endpoint {
	ep := &Endpoint{
		node:        node,
		rt:          rt,
		tr:          tr,
		pending:     make(map[uint64]pendingCall),
		handlers:    make(map[uint32]handler),
		callTimeout: 5 * time.Second,
		sweepStop:   make(chan struct{}),
		Calls:       metrics.NewCounter("rpc.calls"),
		Timeouts:    metrics.NewCounter("rpc.timeouts"),
	}
	for _, o := range opts {
		o(ep)
	}
	go ep.sweep()
	return ep
}

// Node returns the endpoint's node name.
func (ep *Endpoint) Node() string { return ep.node }

// Runtime returns the endpoint's runtime.
func (ep *Endpoint) Runtime() *core.Runtime { return ep.rt }

// Handle registers h for requests whose message tag is tag.
func (ep *Endpoint) Handle(tag uint32, h HandlerFunc) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[tag] = handler{fn: h, name: fmt.Sprintf("rpc-%d", tag)}
}

// Close fails all pending calls and stops the sweeper.
func (ep *Endpoint) Close() {
	ep.sweepOnce.Do(func() { close(ep.sweepStop) })
	ep.mu.Lock()
	ep.closed = true
	pend := ep.pending
	ep.pending = make(map[uint64]pendingCall)
	ep.mu.Unlock()
	for _, pc := range pend {
		ep.postCompletion(pc, nil, ErrClosed)
	}
}

// Call sends req to node to and returns the event that fires with the
// reply. Must be invoked under this endpoint's runtime baton (from one
// of its coroutines or a posted function) — like all event creation.
func (ep *Endpoint) Call(to string, req codec.Message) *core.ResultEvent {
	ev := core.NewResultEvent("rpc", to)
	ep.send(to, pendingCall{ev: ev}, req, nil)
	return ev
}

// send books pc and puts one request frame on the wire: req encoded in
// place when it is set, the pre-marshaled payload otherwise.
func (ep *Endpoint) send(to string, pc pendingCall, req codec.Message, payload []byte) {
	ep.Calls.Inc()
	id, err := ep.register(to, pc)
	if err != nil {
		finish(pc.ev, pc.ob, nil, err)
		return
	}
	if err := ep.tr.Send(ep.node, to, requestFrame(id, req, payload)); err != nil {
		ep.mu.Lock()
		_, booked := ep.pending[id]
		delete(ep.pending, id)
		ep.mu.Unlock()
		if booked {
			finish(pc.ev, pc.ob, nil, err)
		}
	}
}

// requestFrame encodes the (id, request, body) envelope with one
// exact-size allocation.
func requestFrame(id uint64, req codec.Message, payload []byte) []byte {
	e := codec.Scratch()
	e.Uint64(id)
	e.Bool(false) // request
	if req != nil {
		e.MessageField(req)
	} else {
		e.BytesField(payload)
	}
	return e.Detach()
}

// finish resolves a call with its outcome, freeing the outbox window
// slot it holds, if any; baton context only.
func finish(ev *core.ResultEvent, ob *Outbox, msg codec.Message, err error) {
	if ob != nil {
		ob.complete(ev, msg, err)
		return
	}
	ev.Fire(msg, err)
}

// postCompletion resolves the call on the runtime baton.
func (ep *Endpoint) postCompletion(pc pendingCall, msg codec.Message, err error) {
	ev, ob := pc.ev, pc.ob
	ep.rt.Post(func() { finish(ev, ob, msg, err) })
}

// register books the pending call under the lock, fast-failing when
// the endpoint is closed or the peer is out of the configuration (so
// a removed peer costs an error, not a full call timeout).
func (ep *Endpoint) register(to string, pc pendingCall) (uint64, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return 0, ErrClosed
	}
	if ep.unreachable[to] {
		return 0, ErrUnreachable
	}
	ep.nextID++
	id := ep.nextID
	now := time.Now()
	pc.to, pc.sentAt, pc.deadline = to, now, now.Add(ep.callTimeout)
	ep.pending[id] = pc
	return id, nil
}

// SetUnreachable marks (or clears) peer as removed from the
// configuration: subsequent calls to it fast-fail with ErrUnreachable
// rather than waiting out the call timeout.
func (ep *Endpoint) SetUnreachable(peer string, down bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if down {
		if ep.unreachable == nil {
			ep.unreachable = make(map[string]bool)
		}
		ep.unreachable[peer] = true
		return
	}
	delete(ep.unreachable, peer)
}

// TransportHandler returns the inbound message handler to register
// with the transport for this node. The envelope and the reply body
// are decoded as views of the frame; only what a message keeps is
// copied, by its own decoder.
func (ep *Endpoint) TransportHandler() transport.Handler { return ep.deliver }

func (ep *Endpoint) deliver(from string, payload []byte) {
	d := codec.NewDecoder(payload)
	id := d.Uint64()
	isResp := d.Bool()
	body := d.BytesView()
	if d.Err() != nil {
		return // corrupt frame
	}
	if isResp {
		ep.onResponse(id, body)
		return
	}
	ep.onRequest(from, id, body)
}

// onResponse completes the pending call, on the runtime baton.
func (ep *Endpoint) onResponse(id uint64, body []byte) {
	ep.mu.Lock()
	pc, ok := ep.pending[id]
	if ok {
		delete(ep.pending, id)
	}
	ep.mu.Unlock()
	if !ok {
		return // expired or duplicate
	}
	if ep.observer != nil {
		ep.observer(pc.to, time.Since(pc.sentAt), false)
	}
	msg, err := decodeReply(body)
	ep.postCompletion(pc, msg, err)
}

// decodeReply splits the (ok, errmsg, payload) reply body.
func decodeReply(body []byte) (codec.Message, error) {
	d := codec.NewDecoder(body)
	ok := d.Bool()
	errMsg := d.String()
	inner := d.BytesView()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRemote, errMsg)
	}
	return codec.Unmarshal(inner)
}

// onRequest decodes, dispatches to the handler on a new coroutine, and
// sends the reply.
func (ep *Endpoint) onRequest(from string, id uint64, body []byte) {
	msg, err := codec.Unmarshal(body)
	if err != nil {
		ep.reply(from, id, nil, err)
		return
	}
	ep.mu.Lock()
	h, ok := ep.handlers[msg.TypeTag()]
	ep.mu.Unlock()
	if !ok {
		ep.reply(from, id, nil, fmt.Errorf("no handler for tag %d", msg.TypeTag()))
		return
	}
	ep.rt.Spawn(h.name, func(co *core.Coroutine) {
		resp := h.fn(co, from, msg)
		if resp == nil {
			ep.reply(from, id, nil, errors.New("handler returned no reply"))
			return
		}
		ep.reply(from, id, resp, nil)
	})
}

// reply sends a response envelope back to the caller.
func (ep *Endpoint) reply(to string, id uint64, msg codec.Message, herr error) {
	_ = ep.tr.Send(ep.node, to, replyFrame(id, msg, herr)) // reply loss is a timeout at the caller
}

// replyFrame encodes the (id, response, body) envelope around the
// (ok, errmsg, payload) body, nested fields in place, with one
// exact-size allocation.
func replyFrame(id uint64, msg codec.Message, herr error) []byte {
	e := codec.Scratch()
	e.Uint64(id)
	e.Bool(true) // response
	body := e.BeginBytes()
	e.Bool(herr == nil)
	if herr != nil {
		e.String(herr.Error())
	} else {
		e.String("")
	}
	if msg != nil {
		e.MessageField(msg)
	} else {
		e.BytesField(nil)
	}
	e.EndBytes(body)
	return e.Detach()
}

// sweep periodically fails pending calls past their deadline.
func (ep *Endpoint) sweep() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ep.sweepStop:
			return
		case now := <-tick.C:
			var expired []pendingCall
			ep.mu.Lock()
			for id, pc := range ep.pending {
				if now.After(pc.deadline) {
					delete(ep.pending, id)
					expired = append(expired, pc)
				}
			}
			ep.mu.Unlock()
			for _, pc := range expired {
				ep.Timeouts.Inc()
				if ep.observer != nil {
					ep.observer(pc.to, time.Since(pc.sentAt), true)
				}
				ep.postCompletion(pc, nil, ErrTimeout)
			}
		}
	}
}

// Pending returns the number of outstanding calls; for tests and
// backlog instrumentation.
func (ep *Endpoint) Pending() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pending)
}

// Proxy is a convenience handle for calling one peer, mirroring the
// paper's rpc_proxy objects.
type Proxy struct {
	ep *Endpoint
	to string
}

// Proxy returns a proxy for peer to.
func (ep *Endpoint) Proxy(to string) *Proxy { return &Proxy{ep: ep, to: to} }

// Call issues the RPC and returns its event.
func (p *Proxy) Call(req codec.Message) *core.ResultEvent { return p.ep.Call(p.to, req) }

// Peer returns the proxy's target node.
func (p *Proxy) Peer() string { return p.to }
