package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"depfast/internal/codec"
	"depfast/internal/raft"
	"depfast/internal/transport"
)

// tap is the transport the benchmark hands to every server and client
// endpoint. Untraced it only forwards to the in-memory network. While
// tracing it counts messages, bytes and time spent in Send, decodes
// each payload with the codec to count AppendEntries batches, and
// records a send span and a delivery span per message.
type tap struct {
	inner   *transport.Network
	tracing atomic.Bool
	spans   *spanLog

	msgs, bytes, sendNs atomic.Int64
	// appends and entries count non-heartbeat AppendEntries requests
	// and the log entries they carry.
	appends, entries atomic.Int64
}

func newTap(inner *transport.Network) *tap { return &tap{inner: inner} }

// Send implements transport.Transport.
func (t *tap) Send(from, to string, payload []byte) error {
	if !t.tracing.Load() {
		return t.inner.Send(from, to, payload)
	}
	start := time.Now()
	err := t.inner.Send(from, to, payload)
	end := time.Now()
	t.msgs.Add(1)
	t.bytes.Add(int64(len(payload)))
	t.sendNs.Add(int64(end.Sub(start)))
	key, tag := t.decode(payload, true)
	key.from, key.to = from, to
	t.spans.send(key, tag, len(payload), start, end)
	return err
}

// Close implements transport.Transport.
func (t *tap) Close() { t.inner.Close() }

// handler wraps node's inbound handler so deliveries are spanned while
// tracing.
func (t *tap) handler(node string, h transport.Handler) transport.Handler {
	return func(from string, payload []byte) {
		if !t.tracing.Load() {
			h(from, payload)
			return
		}
		start := time.Now()
		h(from, payload)
		end := time.Now()
		key, tag := t.decode(payload, false)
		key.from, key.to = from, node
		t.spans.deliver(key, tag, len(payload), start, end)
	}
}

// decode reads the rpc envelope (call id, response flag, body) and the
// codec message inside it, returning the message key and a type tag
// such as "AppendEntries" or "ClientResponse". Sends (count) tally
// AppendEntries batches.
func (t *tap) decode(payload []byte, count bool) (msgKey, string) {
	d := codec.NewDecoder(payload)
	k := msgKey{id: d.Uint64(), resp: d.Bool()}
	body := d.BytesField()
	if d.Err() != nil {
		return k, "corrupt"
	}
	if k.resp {
		rd := codec.NewDecoder(body)
		if ok := rd.Bool(); !ok {
			return k, "error"
		}
		_ = rd.String()
		body = rd.BytesField()
		if rd.Err() != nil {
			return k, "corrupt"
		}
	}
	msg, err := codec.Unmarshal(body)
	if err != nil {
		return k, "corrupt"
	}
	if ae, ok := msg.(*raft.AppendEntries); ok && !k.resp {
		if len(ae.Entries) == 0 {
			return k, "AppendEntries.heartbeat"
		}
		if count {
			t.appends.Add(1)
			t.entries.Add(int64(len(ae.Entries)))
		}
	}
	return k, typeName(msg)
}

var typeNames sync.Map // codec tag -> Go type name

func typeName(msg codec.Message) string {
	if n, ok := typeNames.Load(msg.TypeTag()); ok {
		return n.(string)
	}
	n := fmt.Sprintf("%T", msg)
	for i := len(n) - 1; i >= 0; i-- {
		if n[i] == '.' {
			n = n[i+1:]
			break
		}
	}
	typeNames.Store(msg.TypeTag(), n)
	return n
}

// msgKey identifies one message: a call id is unique per sending
// endpoint, and a response reuses its request's id.
type msgKey struct {
	from, to string
	id       uint64
	resp     bool
}

// span is one traced interval, times in nanoseconds since the log's
// t0. A delivery span's parent is the send span of the same message.
type span struct {
	id, parent uint64
	name, tag  string
	from, to   string
	bytes      int
	start, end int64
}

// maxSpans caps the spans kept in memory; later spans are counted as
// dropped.
const maxSpans = 300_000

// spanLog keeps spans in memory; write dumps them when the run ends.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int
	open    map[msgKey]uint64 // sent, not yet delivered: key -> send span id
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0, open: make(map[msgKey]uint64)} }

// add records a span over [start, end] and returns its id (0 when the
// log is full).
func (l *spanLog) add(s span, start, end time.Time) uint64 {
	s.start, s.end = int64(start.Sub(l.t0)), int64(end.Sub(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	l.nextID++
	s.id = l.nextID
	l.spans = append(l.spans, s)
	return s.id
}

func (l *spanLog) send(k msgKey, tag string, n int, start, end time.Time) {
	id := l.add(span{name: "transport.send", tag: tag, from: k.from, to: k.to, bytes: n}, start, end)
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.open[k] = id
	l.mu.Unlock()
}

func (l *spanLog) deliver(k msgKey, tag string, n int, start, end time.Time) {
	l.mu.Lock()
	parent := l.open[k]
	delete(l.open, k)
	l.mu.Unlock()
	l.add(span{parent: parent, name: "transport.deliver", tag: tag, from: k.from, to: k.to, bytes: n}, start, end)
}

// counts returns the spans kept and dropped.
func (l *spanLog) counts() (kept, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans), l.dropped
}

// write dumps the spans as JSON lines, times in microseconds since t0.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"tag":%q,"from":%q,"to":%q,"bytes":%d,"start_us":%.1f,"end_us":%.1f}`+"\n",
			s.id, s.parent, s.name, s.tag, s.from, s.to, s.bytes,
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
