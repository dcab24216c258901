// Package codec implements the wire format used by the DepFast RPC
// framework: a small, allocation-conscious binary encoding (varints,
// length-prefixed byte strings) plus self-describing framed envelopes
// that carry a registered message type tag.
//
// The same bytes travel over the in-memory simulated network and over
// real TCP connections, so single-process experiments and multi-process
// deployments exercise an identical serialization path.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Common decode errors.
var (
	ErrShortBuffer  = errors.New("codec: short buffer")
	ErrVarintRange  = errors.New("codec: varint overflows 64 bits")
	ErrStringTooBig = errors.New("codec: byte string exceeds limit")
	ErrUnknownType  = errors.New("codec: unknown message type")
	ErrFrameTooBig  = errors.New("codec: frame exceeds limit")
)

// MaxStringLen bounds any single encoded byte string; protects decoders
// from corrupt length prefixes.
const MaxStringLen = 64 << 20

// Encoder appends primitive values to a byte slice. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the encoder's
// internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as a LEB128 varint.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int64 appends v zigzag-encoded, so small negative values stay small.
func (e *Encoder) Int64(v int64) {
	e.buf = binary.AppendUvarint(e.buf, zigzag(v))
}

// Int appends an int via Int64.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the IEEE-754 bits of v, fixed 8 bytes.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) BytesField(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BeginBytes opens a length-prefixed byte string whose contents are
// encoded in place by the writes that follow; EndBytes closes it. The
// pair produces the same bytes as BytesField over the contents, without
// encoding them into a separate buffer first. Pairs nest.
func (e *Encoder) BeginBytes() int {
	e.buf = append(e.buf, 0) // room for a one-byte length
	return len(e.buf)
}

// EndBytes writes the length prefix of the byte string opened at start,
// moving the contents up when the length needs a longer varint.
func (e *Encoder) EndBytes(start int) {
	n := len(e.buf) - start
	if n < 0x80 {
		e.buf[start-1] = byte(n)
		return
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	e.buf = append(e.buf, hdr[1:k]...) // grow by the extra prefix bytes
	copy(e.buf[start-1+k:], e.buf[start:start+n])
	copy(e.buf[start-1:], hdr[:k])
}

// Message appends msg with its type tag prefix, exactly as Marshal
// encodes it.
func (e *Encoder) Message(msg Message) {
	e.Uint64(uint64(msg.TypeTag()))
	msg.MarshalTo(e)
}

// MessageField appends msg as a length-prefixed byte string: the bytes
// of BytesField(Marshal(msg)), encoded in place.
func (e *Encoder) MessageField(msg Message) {
	start := e.BeginBytes()
	e.Message(msg)
	e.EndBytes(start)
}

// maxPooledEncoder bounds the buffers kept for reuse, so one large
// snapshot does not pin its scratch space for the process lifetime.
const maxPooledEncoder = 64 << 10

var scratchPool = sync.Pool{New: func() any { return NewEncoder(512) }}

// Scratch returns an empty pooled encoder. Encode into it and take the
// result with Detach; an encoder that is dropped instead is just
// garbage.
func Scratch() *Encoder {
	e := scratchPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Detach returns an exact-size copy of the encoded bytes and puts the
// encoder back into the Scratch pool. The encoder must not be used
// afterwards.
func (e *Encoder) Detach() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	if cap(e.buf) <= maxPooledEncoder {
		scratchPool.Put(e)
	}
	return out
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decoder reads primitive values from a byte slice. Decode methods
// return an error on malformed or truncated input; after the first
// error all further reads fail with the same error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 reads a LEB128 varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShortBuffer)
		} else {
			d.fail(ErrVarintRange)
		}
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zigzag varint.
func (d *Decoder) Int64() int64 { return unzigzag(d.Uint64()) }

// Int reads an int via Int64.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool reads a single 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrShortBuffer)
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// Float64 reads a fixed 8-byte IEEE-754 value.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// BytesField reads a length-prefixed byte string. The returned slice is
// an exact-size copy and remains valid after the decoder's buffer is
// reused: use it for bytes that outlive the message being decoded.
func (d *Decoder) BytesField() []byte {
	v := d.BytesView()
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// BytesView reads a length-prefixed byte string without copying it:
// the result aliases the decoder's buffer, so it is valid only as long
// as that buffer is neither reused nor modified. A frame delivered by a
// transport is immutable, so views of it are safe while its handler
// runs.
func (d *Decoder) BytesView() []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.fail(ErrStringTooBig)
		return nil
	}
	if d.off+int(n) > len(d.buf) {
		d.fail(ErrShortBuffer)
		return nil
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint64()
	if d.err != nil {
		return ""
	}
	if n > MaxStringLen {
		d.fail(ErrStringTooBig)
		return ""
	}
	if d.off+int(n) > len(d.buf) {
		d.fail(ErrShortBuffer)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Message is implemented by every RPC-transportable type.
type Message interface {
	// TypeTag returns the registered wire tag for the concrete type.
	TypeTag() uint32
	// MarshalTo appends the message body to the encoder.
	MarshalTo(*Encoder)
	// UnmarshalFrom reads the message body from the decoder.
	UnmarshalFrom(*Decoder)
}

// registry maps type tags to factories producing empty messages.
var registry = map[uint32]func() Message{}

// Register installs a factory for tag. It panics on duplicate tags so
// wire-format collisions fail loudly at init time.
func Register(tag uint32, factory func() Message) {
	if _, dup := registry[tag]; dup {
		panic(fmt.Sprintf("codec: duplicate message tag %d", tag))
	}
	registry[tag] = factory
}

// Registered reports whether a tag has a registered factory.
func Registered(tag uint32) bool {
	_, ok := registry[tag]
	return ok
}

// Marshal encodes msg with its type tag prefix into a pooled scratch
// encoder and returns one exact-size copy.
func Marshal(msg Message) []byte {
	e := Scratch()
	e.Message(msg)
	return e.Detach()
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// Unmarshal decodes a tagged message produced by Marshal. Fields read
// with BytesView alias data; see the message type for which those are.
func Unmarshal(data []byte) (Message, error) {
	d := decoderPool.Get().(*Decoder)
	*d = Decoder{buf: data}
	defer func() {
		*d = Decoder{}
		decoderPool.Put(d)
	}()
	tag := d.Uint64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	factory, ok := registry[uint32(tag)]
	if !ok {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, tag)
	}
	msg := factory()
	msg.UnmarshalFrom(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return msg, nil
}

// MaxFrameLen bounds a single framed payload on the TCP transport.
const MaxFrameLen = 128 << 20

// WriteFrame writes a 4-byte big-endian length prefix followed by the
// payload to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
