package raft

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/kv"
	"depfast/internal/transport"
)

// frameLog keeps every delivered frame that carries a marker.
type frameLog struct {
	mu     sync.Mutex
	marker []byte
	frames [][]byte
}

func (l *frameLog) wrap(h transport.Handler) transport.Handler {
	return func(from string, payload []byte) {
		h(from, payload)
		if bytes.Contains(payload, l.marker) {
			l.mu.Lock()
			l.frames = append(l.frames, payload)
			l.mu.Unlock()
		}
	}
}

// replicaCopy is what one replica holds of the written entry.
type replicaCopy struct {
	value []byte
	wal   []byte
	cache []byte
}

// replicaState reads, on s's runtime, the stored value of key and the
// WAL and entry-cache data of the newest entry that carries value.
func replicaState(t *testing.T, s *Server, key string, value []byte) replicaCopy {
	t.Helper()
	got := make(chan replicaCopy, 1)
	s.rt.Post(func() {
		var rc replicaCopy
		rc.value = s.sm.Store().Apply(kv.Command{Op: kv.OpGet, Key: key}).Value
		for idx := s.wal.LastIndex(); idx >= s.wal.FirstIndex() && idx > 0; idx-- {
			if e, ok := s.wal.Entry(idx); ok && bytes.Contains(e.Data, value) {
				rc.wal = e.Data
				if ce, ok := s.cache.Get(idx); ok {
					rc.cache = ce.Data
				}
				break
			}
		}
		got <- rc
	})
	select {
	case rc := <-got:
		return rc
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: runtime did not answer", s.cfg.ID)
		return replicaCopy{}
	}
}

// TestDeliveredFrameOwnership writes a value through the in-memory
// transport and then overwrites every delivered frame that carried it.
// Decoders read frames as views, so this catches any replica state
// that kept a view instead of copying: each replica's stored value,
// WAL entry and entry-cache entry must be unchanged.
func TestDeliveredFrameOwnership(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	value := []byte("frame-ownership-value-0123456789")
	log := &frameLog{marker: value}
	ecfg := env.DefaultConfig()
	ecfg.NetBase = 0
	for name, s := range c.servers {
		c.net.Register(name, c.envs[name], log.wrap(s.TransportHandler()))
	}
	c.net.Register("client-0", env.New("client-0", ecfg), log.wrap(c.clientEP.TransportHandler()))
	c.waitLeader()

	cl := c.client(1)
	c.onClient(func(co *core.Coroutine) {
		if err := cl.Put(co, "owned", append([]byte(nil), value...)); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	if t.Failed() {
		return
	}

	// Every replica applies the entry before the frames are clobbered.
	before := map[string]replicaCopy{}
	deadline := time.Now().Add(10 * time.Second)
	for name, s := range c.servers {
		for {
			rc := replicaState(t, s, "owned", value)
			if bytes.Equal(rc.value, value) && rc.wal != nil && rc.cache != nil {
				before[name] = replicaCopy{value: bytes.Clone(rc.value),
					wal: bytes.Clone(rc.wal), cache: bytes.Clone(rc.cache)}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never applied the write", name)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	log.mu.Lock()
	frames := log.frames
	log.mu.Unlock()
	if len(frames) < 3 {
		t.Fatalf("saw %d frames carrying the value, want the request and two appends", len(frames))
	}
	for _, f := range frames {
		for i := range f {
			f[i] = 0xEE
		}
	}

	for name, s := range c.servers {
		after := replicaState(t, s, "owned", value)
		want := before[name]
		if !bytes.Equal(after.value, want.value) {
			t.Errorf("%s: stored value changed to %q", name, after.value)
		}
		if !bytes.Equal(after.wal, want.wal) {
			t.Errorf("%s: WAL entry changed to %x", name, after.wal)
		}
		if !bytes.Equal(after.cache, want.cache) {
			t.Errorf("%s: entry-cache entry changed to %x", name, after.cache)
		}
	}
}
