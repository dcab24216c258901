package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/harness"
	"depfast/internal/kv"
)

// verify clears every fault, waits for the cluster to converge and
// checks the replicas' final state: identical contents on every
// replica, every stored value traceable to a write of its key, no
// acknowledged write lost, and, where the workload asks, a linearizable
// history. It returns one line per check and whether all passed; a
// check that could not decide is reported as unchecked, not as passed.
func verify(c *cluster, l *load, w workload) ([]string, bool) {
	for _, e := range c.envs {
		failslow.Clear(e)
	}
	var lines []string
	ok := true
	fail := func(format string, args ...interface{}) {
		lines = append(lines, "FAILED "+fmt.Sprintf(format, args...))
		ok = false
	}

	conv := harness.WaitConvergence(c.servers, len(c.names), 60*time.Second)
	if !conv.Converged {
		fail("convergence: %s", conv)
		return lines, false
	}
	lines = append(lines, "passed convergence: "+conv.String())

	// kv.Store.Snapshot encodes in map order, so the replicas' snapshot
	// bytes are decoded and compared as sorted key/value lists.
	var states [][]kv.Pair
	for _, name := range c.names {
		pairs, err := storeContents(c, name)
		if err != nil {
			fail("snapshot of %s: %v", name, err)
			return lines, false
		}
		states = append(states, pairs)
	}
	for i := 1; i < len(states); i++ {
		if d := firstDifference(states[0], states[i]); d != "" {
			fail("replicas %s and %s differ: %s", c.names[0], c.names[i], d)
		}
	}
	if ok {
		lines = append(lines, fmt.Sprintf("passed replica agreement: %d keys identical on %d replicas", len(states[0]), len(states)))
	}

	if msg := provenance(states[0], l); msg != "" {
		fail("provenance: %s", msg)
	} else {
		lines = append(lines, fmt.Sprintf("passed provenance: every value traced to a write of its key, no acked write lost (%d keys)", len(states[0])))
	}

	foreign := 0
	for _, lg := range l.logs {
		foreign += lg.foreign
	}
	if foreign > 0 {
		fail("reads: %d reads returned a value no write of the run produced", foreign)
	}

	if w.lin {
		rep := harness.CheckLinearizable(l.history(), 0)
		switch rep.Verdict {
		case harness.LinOK:
			lines = append(lines, fmt.Sprintf("passed linearizability: %d ops, %d states", rep.Ops, rep.States))
		case harness.LinViolation:
			fail("linearizability: key %s, %d ops", rep.Key, rep.Ops)
		default:
			lines = append(lines, fmt.Sprintf("unchecked linearizability: search budget exhausted on key %s (%d ops, %d states)", rep.Key, rep.Ops, rep.States))
		}
	}
	return lines, ok
}

// storeContents reads a replica's snapshot on its own runtime, where
// the state machine is applied, and decodes it to sorted pairs.
func storeContents(c *cluster, name string) ([]kv.Pair, error) {
	srv := c.servers[name]
	got := make(chan []byte, 1)
	srv.Runtime().Post(func() { got <- srv.Store().Snapshot() })
	var snap []byte
	select {
	case snap = <-got:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("runtime did not answer within 10s")
	}
	st := kv.NewStore()
	if err := st.Restore(snap); err != nil {
		return nil, err
	}
	return st.Apply(kv.Command{Op: kv.OpScan, ScanLen: st.Len()}).Pairs, nil
}

func firstDifference(a, b []kv.Pair) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d keys against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Sprintf("key %q against %q", a[i].Key, b[i].Key)
		}
		if !bytes.Equal(a[i].Value, b[i].Value) {
			return fmt.Sprintf("value of %q", a[i].Key)
		}
	}
	return ""
}

// provenance checks that each final value was written to its key by the
// write its header names, and that no acknowledged write was lost: the
// final value's write must not have returned before an acknowledged
// write of the same key was called.
func provenance(pairs []kv.Pair, l *load) string {
	writers := l.writers()
	latestCall := make(map[string]int64) // key -> latest call time of an acked write
	for _, lg := range l.logs {
		for _, w := range lg.writes {
			if w.acked && w.call > latestCall[w.key] {
				latestCall[w.key] = w.call
			}
		}
	}
	present := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		present[p.Key] = true
		if len(p.Value) < 16 || !bytes.Equal(p.Value[16:], l.fill[16:]) {
			return fmt.Sprintf("key %q holds a %d-byte value no write of the run produced", p.Key, len(p.Value))
		}
		id := binary.LittleEndian.Uint64(p.Value[0:8])
		seq := binary.LittleEndian.Uint64(p.Value[8:16])
		lg := writers[id]
		if lg == nil || seq == 0 || seq > uint64(len(lg.writes)) {
			return fmt.Sprintf("key %q holds a value from unknown write (client %d, seq %d)", p.Key, id, seq)
		}
		src := lg.writes[seq-1]
		if src.key != p.Key {
			return fmt.Sprintf("key %q holds the value client %d wrote to %q", p.Key, id, src.key)
		}
		if src.acked && src.ret < latestCall[p.Key] {
			return fmt.Sprintf("key %q lost an acknowledged write: its value's write returned before a later acked write was called", p.Key)
		}
	}
	var missing []string
	for key := range latestCall {
		if !present[key] {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Sprintf("%d acknowledged keys missing, first %q", len(missing), missing[0])
	}
	return ""
}
