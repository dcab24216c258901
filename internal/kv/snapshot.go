package kv

import (
	"encoding/binary"
	"fmt"

	"depfast/internal/codec"
)

// Snapshot serializes the full store state.
func (s *Store) Snapshot() []byte {
	e := codec.NewEncoder(s.snapshotSize())
	s.marshalTo(e)
	return e.Bytes()
}

// snapshotSize bounds the encoded size of the store from above, so a
// snapshot encodes into one buffer without growing it.
func (s *Store) snapshotSize() int {
	n := binary.MaxVarintLen64
	for k, v := range s.m {
		n += len(k) + len(v) + 2*binary.MaxVarintLen64
	}
	return n
}

func (s *Store) marshalTo(e *codec.Encoder) {
	e.Int(len(s.m))
	for k, v := range s.m {
		e.String(k)
		e.BytesField(v)
	}
}

// Restore replaces the store contents with a snapshot produced by
// Snapshot.
func (s *Store) Restore(data []byte) error {
	d := codec.NewDecoder(data)
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > 1<<28 {
		return fmt.Errorf("kv: implausible snapshot size %d", n)
	}
	m := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.BytesField()
		if d.Err() != nil {
			return d.Err()
		}
		m[k] = v
	}
	s.m = m
	s.sortedKeys = nil
	s.dirty = true
	return nil
}

// encodeResult serializes one cached session result.
func encodeResult(e *codec.Encoder, r Result) {
	e.Bool(r.Found)
	e.BytesField(r.Value)
	e.Int(len(r.Pairs))
	for _, p := range r.Pairs {
		e.String(p.Key)
		e.BytesField(p.Value)
	}
}

// decodeResult parses one cached session result.
func decodeResult(d *codec.Decoder) Result {
	r := Result{Found: d.Bool(), Value: d.BytesField()}
	n := d.Int()
	if n < 0 || n > 1<<20 {
		return r
	}
	for i := 0; i < n; i++ {
		r.Pairs = append(r.Pairs, Pair{Key: d.String(), Value: d.BytesField()})
	}
	return r
}

// Snapshot serializes the store plus the session dedup state, so a
// restored replica keeps exactly-once semantics across the snapshot
// boundary.
func (s *Sessions) Snapshot() []byte {
	e := codec.NewEncoder(s.store.snapshotSize() + 64*len(s.lastSeq) + 16)
	store := e.BeginBytes()
	s.store.marshalTo(e)
	e.EndBytes(store)
	e.Int(len(s.lastSeq))
	for id, seq := range s.lastSeq {
		e.Uint64(id)
		e.Uint64(seq)
		encodeResult(e, s.lastRes[id])
	}
	return e.Bytes()
}

// Restore replaces sessions + store state from a Sessions snapshot.
func (s *Sessions) Restore(data []byte) error {
	d := codec.NewDecoder(data)
	storeData := d.BytesField()
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n < 0 || n > 1<<24 {
		return fmt.Errorf("kv: implausible session count %d", n)
	}
	if err := s.store.Restore(storeData); err != nil {
		return err
	}
	s.lastSeq = make(map[uint64]uint64, n)
	s.lastRes = make(map[uint64]Result, n)
	for i := 0; i < n; i++ {
		id := d.Uint64()
		seq := d.Uint64()
		res := decodeResult(d)
		if d.Err() != nil {
			return d.Err()
		}
		s.lastSeq[id] = seq
		s.lastRes[id] = res
	}
	return nil
}
