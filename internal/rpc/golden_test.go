package rpc_test

import (
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/raft"
	"depfast/internal/rpc"
	"depfast/internal/storage"
	"depfast/internal/transport"
)

// The wire bytes below are pinned: persisted WAL and snapshot files
// hold codec encodings, and TCP peers of another build read these
// frames, so an encoder change that moves a single byte is a format
// break, not an optimization. Values longer than 127 bytes give the
// nested length prefixes two-byte varints.
var goldenWire = map[string]string{
	"ClientRequest": "65e80707a20100146b65792d303030303030303030303030303030308801646570666173742d646570666173742d6465" +
		"70666173742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173742d6465" +
		"70666173742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173742d6465" +
		"70666173742d646570666173742d646570666173742d0000c0c407150101",
	"ClientResponse": "660100027332018201767676767676767676767676767676767676767676767676767676767676767676767676767676" +
		"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
		"767676767676767676767676767676767676767676767676767676767676767676767676767676767676760401610131" +
		"016200036f6f70",
	"AppendEntries":      "cb01030273312928042a0301652b030028808080808060",
	"AppendEntriesReply": "cc0103012b027332000197c306",
	"RequestFrame": "0100ae0165e80707a20100146b65792d303030303030303030303030303030308801646570666173742d646570666173" +
		"742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173" +
		"742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173742d646570666173" +
		"742d646570666173742d646570666173742d646570666173742d0000c0c407150101",
	"ResponseFrame": "01019b010100970166010002733201820176767676767676767676767676767676767676767676767676767676767676" +
		"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
		"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
		"7676760401610131016200036f6f70",
	"AppendEntriesFrame": "020017cb01030273312928042a0301652b030028808080808060",
	"ErrorFrame":         "02011900166e6f2068616e646c657220666f72207461672032303300",
}

func goldenMessages() map[string]codec.Message {
	return map[string]codec.Message{
		"ClientRequest": &kv.ClientRequest{ClientID: 1000, Seq: 7,
			Cmd:     kv.Command{Op: kv.OpPut, Key: "key-0000000000000000", Value: []byte(strings.Repeat("depfast-", 17))},
			TraceID: 123456, TraceSpan: 21, TraceSampled: true, FollowerRead: true},
		"ClientResponse": &kv.ClientResponse{OK: true, LeaderHint: "s2", Found: true, Value: []byte(strings.Repeat("v", 130)),
			Pairs: []kv.Pair{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}}, Err: "oop"},
		"AppendEntries": &raft.AppendEntries{Term: 3, Leader: "s1", PrevLogIndex: 41, PrevLogTerm: 40,
			Entries:      []storage.Entry{{Index: 42, Term: 3, Data: []byte("e")}, {Index: 43, Term: 3}},
			LeaderCommit: 40, SentAtNs: 1 << 40 * 3 / 2},
		"AppendEntriesReply": &raft.AppendEntriesReply{Term: 3, Success: true, LastIndex: 43, From: "s2",
			SelfSlow: true, FsyncUs: -53452},
	}
}

func TestGoldenMessageBytes(t *testing.T) {
	for name, msg := range goldenMessages() {
		if got := hex.EncodeToString(codec.Marshal(msg)); got != goldenWire[name] {
			t.Errorf("%s encodes to\n  %s\nwant\n  %s", name, got, goldenWire[name])
		}
	}
}

// recorder is a transport that keeps every frame it is handed and
// delivers it synchronously to the destination's handler.
type recorder struct {
	mu       sync.Mutex
	frames   []string
	handlers map[string]transport.Handler
}

func (r *recorder) Send(from, to string, payload []byte) error {
	r.mu.Lock()
	r.frames = append(r.frames, hex.EncodeToString(payload))
	h := r.handlers[to]
	r.mu.Unlock()
	h(from, payload)
	return nil
}

func (r *recorder) Close() {}

func TestGoldenFrameBytes(t *testing.T) {
	rec := &recorder{handlers: map[string]transport.Handler{}}
	rtA, rtB := core.NewRuntime("a"), core.NewRuntime("b")
	epA := rpc.NewEndpoint("a", rtA, rec)
	epB := rpc.NewEndpoint("b", rtB, rec)
	defer func() {
		epA.Close()
		epB.Close()
		rtA.Stop()
		rtB.Stop()
	}()
	rec.handlers["a"], rec.handlers["b"] = epA.TransportHandler(), epB.TransportHandler()
	msgs := goldenMessages()
	epB.Handle(kv.TagClientRequest, func(co *core.Coroutine, from string, req codec.Message) codec.Message {
		return msgs["ClientResponse"]
	})

	done := make(chan struct{})
	rtA.Spawn("golden", func(co *core.Coroutine) {
		defer close(done)
		// Request id 1 is answered; id 2 has no handler and gets an
		// error reply.
		co.WaitFor(epA.Call("b", msgs["ClientRequest"]), 5*time.Second)
		co.WaitFor(epA.Call("b", msgs["AppendEntries"]), 5*time.Second)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls did not complete")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := []string{"RequestFrame", "ResponseFrame", "AppendEntriesFrame", "ErrorFrame"}
	if len(rec.frames) != len(want) {
		t.Fatalf("recorded %d frames, want %d", len(rec.frames), len(want))
	}
	for i, name := range want {
		if rec.frames[i] != goldenWire[name] {
			t.Errorf("%s is\n  %s\nwant\n  %s", name, rec.frames[i], goldenWire[name])
		}
	}
}
