package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// envelope is a registered Value whose interface field can hold a type gob
// does not know, so encoding fails after the envelope's own type
// descriptor has been encoded.
type envelope struct {
	Tag   string
	Inner any
}

// unregistered is never passed to gob.Register.
type unregistered struct{ X int }

// orderedA, orderedB and orderedC give concurrent senders distinct Value
// types, so their first frames carry distinct type descriptors.
type orderedA struct{ N int }
type orderedB struct {
	S string
	N int
}
type orderedC struct {
	V []float64
	N int
}

// benchPayload has the shape of a benchmark packet: eight ints plus ids.
type benchPayload struct {
	Src  int32
	Seq  uint64
	Due  int64
	Vals [8]int64
	Sum  uint64
}

func init() {
	gob.Register(envelope{})
	gob.Register(orderedA{})
	gob.Register(orderedB{})
	gob.Register(orderedC{})
	gob.Register(&benchPayload{})
}

// collectServer starts a server that forwards every message to the
// returned channel.
func collectServer(t *testing.T) (*Server, <-chan Message) {
	t.Helper()
	got := make(chan Message, 1024)
	srv, err := Listen("127.0.0.1:0", func(m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, got
}

func dialClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// expect waits for the next message and checks its Seq and Value.
func expect(t *testing.T, got <-chan Message, seq uint64, value any) {
	t.Helper()
	select {
	case m := <-got:
		if m.Seq != seq || !reflect.DeepEqual(m.Value, value) {
			t.Fatalf("received seq %d value %#v, want seq %d value %#v", m.Seq, m.Value, seq, value)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("seq %d never arrived", seq)
	}
}

func packetMsg(seq uint64, v any) Message {
	return PacketMessage(&pipeline.Packet{Seq: seq, Value: v})
}

// TestSendAfterEncodeFailureResyncs: a Value that fails to encode leaves
// gob believing the envelope's type descriptor was sent. The client must
// drop that stream so its next frame still decodes on the server, both on
// a fresh connection and on one whose stream is already running.
func TestSendAfterEncodeFailureResyncs(t *testing.T) {
	srv, got := collectServer(t)

	fresh := dialClient(t, srv)
	if err := fresh.Send(packetMsg(1, envelope{Inner: unregistered{1}})); err == nil {
		t.Fatal("unregistered value encoded")
	}
	if err := fresh.Send(packetMsg(2, envelope{Tag: "ok", Inner: 2})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 2, envelope{Tag: "ok", Inner: 2})

	running := dialClient(t, srv)
	if err := running.Send(packetMsg(3, orderedA{3})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 3, orderedA{3})
	if err := running.Send(packetMsg(4, envelope{Inner: unregistered{4}})); err == nil {
		t.Fatal("unregistered value encoded")
	}
	if err := running.Send(packetMsg(5, envelope{Tag: "ok", Inner: 5})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 5, envelope{Tag: "ok", Inner: 5})
	if err := running.Send(packetMsg(6, orderedA{6})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 6, orderedA{6})
}

// TestSendBatchFailureResyncs: a batch that fails partway was encoded but
// never written, so none of it arrives, and the frames after it decode.
func TestSendBatchFailureResyncs(t *testing.T) {
	srv, got := collectServer(t)
	cli := dialClient(t, srv)
	err := cli.SendBatch([]Message{
		packetMsg(1, envelope{Tag: "lost", Inner: 1}),
		packetMsg(2, envelope{Inner: unregistered{2}}),
	})
	if err == nil {
		t.Fatal("batch with an unregistered value encoded")
	}
	if err := cli.Send(packetMsg(3, envelope{Tag: "ok", Inner: 3})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 3, envelope{Tag: "ok", Inner: 3})
}

// TestSendBatchRejectsOversized: a batch with one oversized frame writes
// nothing, and the client's next frame still decodes.
func TestSendBatchRejectsOversized(t *testing.T) {
	srv, got := collectServer(t)
	cli := dialClient(t, srv)
	err := cli.SendBatch([]Message{
		packetMsg(1, orderedB{"ok", 1}),
		packetMsg(2, make([]byte, MaxFrameSize+1)),
	})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized batch = %v, want ErrFrameTooLarge", err)
	}
	if st := cli.Stats(); st.FramesOut != 0 || st.BytesOut != 0 {
		t.Fatalf("oversized batch counted %+v", st)
	}
	if err := cli.Send(packetMsg(3, orderedB{"next", 3})); err != nil {
		t.Fatal(err)
	}
	expect(t, got, 3, orderedB{"next", 3})
}

// TestConcurrentSendersKeepOrder shares one Client among goroutines that
// each send their own Value type, one of them in batches. Every frame must
// decode, in per-sender order: the stateful gob stream only stays
// consistent if frames reach the wire in the order they were encoded.
func TestConcurrentSendersKeepOrder(t *testing.T) {
	const per = 200
	values := []func(i int) any{
		func(i int) any { return orderedA{i} },
		func(i int) any { return orderedB{"b", i} },
		func(i int) any { return orderedC{[]float64{float64(i)}, i} },
		func(i int) any { return i },
	}
	srv, got := collectServer(t)
	cli := dialClient(t, srv)

	var wg sync.WaitGroup
	for s, value := range values {
		wg.Add(1)
		go func(s int, value func(int) any) {
			defer wg.Done()
			msg := func(i int) Message {
				return PacketMessage(&pipeline.Packet{SourceInstance: s, Seq: uint64(i), Value: value(i)})
			}
			for i := 0; i < per; i++ {
				var err error
				if s == 0 && i+1 < per {
					err = cli.SendBatch([]Message{msg(i), msg(i + 1)})
					i++
				} else {
					err = cli.Send(msg(i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s, value)
	}
	wg.Wait()

	next := make([]int, len(values))
	for n := 0; n < len(values)*per; n++ {
		select {
		case m := <-got:
			s := m.SourceInstance
			if s < 0 || s >= len(values) {
				t.Fatalf("message from unknown sender %d", s)
			}
			i := next[s]
			if m.Seq != uint64(i) || !reflect.DeepEqual(m.Value, values[s](i)) {
				t.Fatalf("sender %d: got seq %d value %#v, want seq %d", s, m.Seq, m.Value, i)
			}
			next[s]++
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d of %d frames (per sender %v)", n, len(values)*per, next)
		}
	}
}

func TestBroadcastRejectsValue(t *testing.T) {
	srv, _ := collectServer(t)
	if err := srv.Broadcast(packetMsg(1, 1)); err == nil {
		t.Fatal("broadcast of a value frame accepted")
	}
	if err := srv.Broadcast(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes, as a connection's byte stream,
// through the frame reader into one decoder. Decoding must fail cleanly or
// yield valid messages, and whatever decodes must survive re-encoding.
func FuzzDecodeFrame(f *testing.F) {
	var e encoder
	for _, m := range []Message{
		PacketMessage(&pipeline.Packet{SourceStage: "source", Seq: 1, Items: 1, Birth: clock.Epoch, Value: &benchPayload{Seq: 1}}),
		PacketMessage(&pipeline.Packet{SourceStage: "source", Seq: 2, TraceID: 7, TraceHops: 1, Value: &benchPayload{Seq: 2}}),
		ExceptionMessage(adapt.ExceptionUnderload),
		{Kind: KindPacket, Final: true},
	} {
		if _, err := e.appendFrame(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(e.buf))
	f.Fuzz(func(t *testing.T, wire []byte) {
		r := bytes.NewReader(wire)
		var scratch []byte
		var d decoder
		var msgs []Message
		for {
			frame, err := readFrameReuse(r, &scratch)
			if err != nil {
				break
			}
			m, err := d.decode(frame)
			if err != nil {
				break // a read loop drops the connection here
			}
			if m.Kind != KindPacket && m.Kind != KindException {
				t.Fatalf("decoded kind %d", m.Kind)
			}
			msgs = append(msgs, m)
		}
		if len(msgs) == 0 {
			return
		}
		var e encoder
		for _, m := range msgs {
			if _, err := e.appendFrame(m); err != nil {
				t.Fatalf("re-encode %+v: %v", m, err)
			}
		}
		again := decodeFrames(t, e.buf)
		for i, m := range msgs {
			// A NaN inside a Value never equals itself; skip those.
			if reflect.DeepEqual(m, m) && !reflect.DeepEqual(again[i], m) {
				t.Fatalf("message %d: re-decoded %+v, want %+v", i, again[i], m)
			}
		}
	})
}

var benchSink Message

// BenchmarkCodecRoundTrip encodes and decodes one benchmark-shaped packet
// per op on one connection's encoder/decoder pair.
func BenchmarkCodecRoundTrip(b *testing.B) {
	var e encoder
	var d decoder
	p := &benchPayload{Src: 1, Due: 1e9, Vals: [8]int64{1, -2, 3, -4, 5, -6, 7, -8}, Sum: 0xFEED}
	m := PacketMessage(&pipeline.Packet{SourceStage: "source", Items: 1, WireSize: 64, Birth: clock.Epoch, Value: p})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seq, m.Seq = uint64(i), uint64(i)
		e.buf = e.buf[:0]
		if _, err := e.appendFrame(m); err != nil {
			b.Fatal(err)
		}
		got, err := d.decode(e.buf[4:])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
	b.ReportMetric(float64(len(e.buf)-4), "frame-B")
}

// TestDecoderFollowsStreamReset: when a sender starts a new gob stream in
// the middle of a connection, its flagReset frame makes the receiver start
// a new decoder, and both streams' frames decode.
func TestDecoderFollowsStreamReset(t *testing.T) {
	first := []Message{packetMsg(1, orderedA{1}), packetMsg(2, orderedA{2})}
	second := []Message{packetMsg(3, orderedA{3}), packetMsg(4, "four")}
	wire := append(encodeFrames(t, first...), encodeFrames(t, second...)...)
	got := decodeFrames(t, wire)
	if want := append(first, second...); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}
