package rpc

import (
	"errors"
	"testing"

	"depfast/internal/codec"
	"depfast/internal/kv"
)

// The message path's allocation budgets: a message is encoded once,
// into pooled scratch space, and leaves as one exact-size slice.

func allocBudget(t *testing.T, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	if got := testing.AllocsPerRun(200, fn); got != want {
		t.Errorf("allocs = %v, want %v", got, want)
	}
}

func budgetRequest() *kv.ClientRequest {
	return &kv.ClientRequest{ClientID: 1000, Seq: 9, TraceID: 77,
		Cmd: kv.Command{Op: kv.OpPut, Key: "key-0000000000000007", Value: make([]byte, 256)}}
}

func TestMarshalClientRequestAllocsOnce(t *testing.T) {
	req := budgetRequest()
	allocBudget(t, 1, func() { codec.Marshal(req) })
}

func TestRequestFrameAllocsOnce(t *testing.T) {
	req := budgetRequest()
	allocBudget(t, 1, func() { requestFrame(42, req, nil) })
	payload := codec.Marshal(req)
	allocBudget(t, 1, func() { requestFrame(42, nil, payload) })
}

func TestReplyFrameAllocsOnce(t *testing.T) {
	resp := &kv.ClientResponse{OK: true, Found: true, Value: make([]byte, 256)}
	allocBudget(t, 1, func() { replyFrame(42, resp, nil) })
	herr := errors.New("no handler for tag 7")
	allocBudget(t, 1, func() { replyFrame(42, nil, herr) })
}
