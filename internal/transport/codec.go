package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// MessageKind discriminates wire messages.
type MessageKind uint8

const (
	// KindPacket carries a data (or Final) packet downstream.
	KindPacket MessageKind = iota + 1
	// KindException carries a load exception upstream — the control
	// plane of the self-adaptation algorithm.
	KindException
)

// Message is the unit framed onto a connection: either a packet or an
// exception. Packet Values must be gob-encodable (applications register
// concrete types with gob.Register); exceptions carry no Value.
type Message struct {
	Kind MessageKind

	// Packet fields (KindPacket).
	SourceStage    string
	SourceInstance int
	Seq            uint64
	Final          bool
	Items          int
	WireSize       int
	Value          any

	// Trace context (KindPacket): the packet lineage's virtual birth
	// time, its distributed trace id (0 = unsampled), and the node-hop
	// count — the compact context that lets a span tree follow a
	// sampled batch across machines.
	Birth     time.Time
	TraceID   uint64
	TraceHops uint8

	// Exception (KindException).
	Exception adapt.Exception
}

// PacketMessage wraps a pipeline packet for the wire.
func PacketMessage(p *pipeline.Packet) Message {
	return Message{
		Kind:           KindPacket,
		SourceStage:    p.SourceStage,
		SourceInstance: p.SourceInstance,
		Seq:            p.Seq,
		Final:          p.Final,
		Items:          p.Items,
		WireSize:       p.WireSize,
		Value:          p.Value,
		Birth:          p.Birth,
		TraceID:        p.TraceID,
		TraceHops:      p.TraceHops,
	}
}

// ExceptionMessage wraps a load exception for the wire.
func ExceptionMessage(e adapt.Exception) Message {
	return Message{Kind: KindException, Exception: e}
}

// Packet converts a KindPacket message back to a freshly allocated pipeline
// packet. The hot ingress path uses PacketInto with a pooled packet instead.
func (m Message) Packet() *pipeline.Packet {
	p := &pipeline.Packet{}
	m.PacketInto(p)
	return p
}

// PacketInto fills p (typically drawn from the pipeline packet pool) with
// the message's packet fields.
func (m Message) PacketInto(p *pipeline.Packet) {
	p.SourceStage = m.SourceStage
	p.SourceInstance = m.SourceInstance
	p.Seq = m.Seq
	p.Final = m.Final
	p.Items = m.Items
	p.WireSize = m.WireSize
	p.Value = m.Value
	p.Birth = m.Birth
	p.TraceID = m.TraceID
	p.TraceHops = m.TraceHops
}

// Wire layout of one frame, after the 4-byte big-endian length prefix:
//
//	version  byte
//	kind     byte
//	flags    byte    flagFinal | flagValue | flagReset
//	hops     byte    TraceHops
//	exc      byte    Exception
//	stage    uvarint length, then the name's bytes
//	instance varint
//	seq      uvarint
//	items    varint
//	wire     varint  WireSize
//	birth    varint  Birth as UnixNano; 0 is the zero time (so the Unix
//	                 epoch itself reads back as the zero time)
//	trace    uvarint TraceID
//	value    the rest of the frame: one gob message (flagValue only)
//
// The header is fixed binary; only Value goes through gob, and through one
// gob stream per connection rather than one per frame, so the type
// descriptors for a Value's concrete type cross the wire once per
// connection instead of in every frame.
const wireVersion = 1

const (
	// flagFinal marks the end-of-stream packet.
	flagFinal byte = 1 << iota
	// flagValue says a gob-encoded Value follows the header.
	flagValue
	// flagReset says the value section begins a new gob stream: the
	// sender started a fresh encoder, so the receiver must start a fresh
	// decoder before decoding it.
	flagReset

	knownFlags = flagFinal | flagValue | flagReset
)

// frameBuf is an append-only byte slice a gob.Encoder can write into.
type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// encoder is the sending half of a connection's codec. It is not safe for
// concurrent use: a Client drives it under its mutex, because the gob
// stream is stateful and the bytes on the wire must follow encoder order.
type encoder struct {
	buf frameBuf
	// gob is the connection's value stream, created at the first frame
	// that carries a Value. It is dropped whenever encoded bytes fail to
	// reach the wire: gob records a type descriptor as sent once it has
	// encoded it, so after a lost frame its state no longer matches the
	// peer's.
	gob *gob.Encoder
	// val stages the Value for gob: encoding through a field rather than
	// through &m.Value keeps the Message argument off the heap.
	val any
}

// appendFrame appends one length-prefixed frame carrying m to e.buf and
// returns the frame's size without the prefix. On error e.buf is left as
// it was, but a value frame may already have advanced the gob stream: the
// caller must call drop unless the bytes it commits include this frame.
func (e *encoder) appendFrame(m Message) (int, error) {
	if m.Kind != KindPacket && m.Kind != KindException {
		return 0, fmt.Errorf("transport: encode message: unknown message kind %d", m.Kind)
	}
	if m.Kind == KindException && m.Value != nil {
		return 0, errors.New("transport: encode message: exception carries a value")
	}
	if m.Exception < 0 || m.Exception > 0xff {
		return 0, fmt.Errorf("transport: encode message: exception %d out of range", m.Exception)
	}
	start := len(e.buf)
	var flags byte
	if m.Final {
		flags |= flagFinal
	}
	if m.Value != nil {
		flags |= flagValue
		if e.gob == nil {
			e.gob = gob.NewEncoder(&e.buf)
			flags |= flagReset
		}
	}
	var birth int64
	if !m.Birth.IsZero() {
		birth = m.Birth.UnixNano()
	}
	b := append(e.buf, 0, 0, 0, 0, wireVersion, byte(m.Kind), flags, m.TraceHops, byte(m.Exception))
	b = binary.AppendUvarint(b, uint64(len(m.SourceStage)))
	b = append(b, m.SourceStage...)
	b = binary.AppendVarint(b, int64(m.SourceInstance))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Items))
	b = binary.AppendVarint(b, int64(m.WireSize))
	b = binary.AppendVarint(b, birth)
	e.buf = binary.AppendUvarint(b, m.TraceID)
	if m.Value != nil {
		e.val = m.Value
		err := e.gob.Encode(&e.val)
		e.val = nil
		if err != nil {
			e.buf = e.buf[:start]
			return 0, fmt.Errorf("transport: encode message: %w", err)
		}
	}
	n := len(e.buf) - start - 4
	if n > MaxFrameSize {
		e.buf = e.buf[:start]
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(e.buf[start:], uint32(n))
	return n, nil
}

// drop discards the gob stream after encoded bytes failed to reach the
// wire. The next value frame starts a fresh stream and says so with
// flagReset.
func (e *encoder) drop() { e.gob = nil }

// decoder is the receiving half of a connection's codec: one per
// connection, driven by that connection's read loop.
type decoder struct {
	rd  bytes.Reader
	gob *gob.Decoder
	val any // decode target; see encoder.val
}

// decode parses one frame (without its length prefix). Everything the
// returned Message holds is copied out of frame, so the caller may reuse
// frame's memory for the next read.
func (d *decoder) decode(frame []byte) (Message, error) {
	if len(frame) < 5 { // the fixed bytes; the varints are checked below
		return Message{}, fmt.Errorf("transport: decode message: short header (%d bytes)", len(frame))
	}
	if frame[0] != wireVersion {
		return Message{}, fmt.Errorf("transport: decode message: wire version %d, want %d", frame[0], wireVersion)
	}
	m := Message{Kind: MessageKind(frame[1])}
	if m.Kind != KindPacket && m.Kind != KindException {
		return Message{}, fmt.Errorf("transport: unknown message kind %d", m.Kind)
	}
	flags := frame[2]
	if flags&^knownFlags != 0 {
		return Message{}, fmt.Errorf("transport: decode message: unknown flags %#x", flags)
	}
	if m.Kind == KindException && flags&flagValue != 0 {
		return Message{}, errors.New("transport: decode message: exception carries a value")
	}
	m.Final = flags&flagFinal != 0
	m.TraceHops = frame[3]
	m.Exception = adapt.Exception(frame[4])

	r := headerReader{b: frame[5:]}
	if n := r.uvarint(); n <= uint64(len(r.b)) {
		m.SourceStage = string(r.b[:n])
		r.b = r.b[n:]
	} else {
		r.bad = true
	}
	m.SourceInstance = int(r.varint())
	m.Seq = r.uvarint()
	m.Items = int(r.varint())
	m.WireSize = int(r.varint())
	if birth := r.varint(); birth != 0 {
		m.Birth = time.Unix(0, birth).UTC()
	}
	m.TraceID = r.uvarint()
	if r.bad {
		return Message{}, errors.New("transport: decode message: truncated header")
	}

	if flags&flagValue == 0 {
		if len(r.b) != 0 {
			return Message{}, fmt.Errorf("transport: decode message: %d trailing bytes", len(r.b))
		}
		return m, nil
	}
	if flags&flagReset != 0 {
		d.gob = gob.NewDecoder(&d.rd)
	} else if d.gob == nil {
		return Message{}, errors.New("transport: decode message: value outside a gob stream")
	}
	d.rd.Reset(r.b)
	err := d.gob.Decode(&d.val)
	m.Value, d.val = d.val, nil
	if err != nil {
		return Message{}, fmt.Errorf("transport: decode message: %w", err)
	}
	if n := d.rd.Len(); n != 0 {
		return Message{}, fmt.Errorf("transport: decode message: %d trailing bytes", n)
	}
	return m, nil
}

// headerReader walks the varint fields of a frame header. A malformed or
// missing field sets bad and empties b, so later fields read as zero and
// the caller checks bad once at the end.
type headerReader struct {
	b   []byte
	bad bool
}

func (r *headerReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *headerReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}
