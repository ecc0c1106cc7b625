package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// encodeFrames encodes msgs with one fresh connection encoder and returns
// the wire bytes, length prefixes included.
func encodeFrames(t testing.TB, msgs ...Message) []byte {
	t.Helper()
	var e encoder
	for _, m := range msgs {
		if _, err := e.appendFrame(m); err != nil {
			t.Fatal(err)
		}
	}
	return e.buf
}

// decodeFrames reads every frame in wire through readFrameReuse into one
// fresh connection decoder, the way a read loop does.
func decodeFrames(t testing.TB, wire []byte) []Message {
	t.Helper()
	r := bytes.NewReader(wire)
	var scratch []byte
	var d decoder
	var out []Message
	for {
		frame, err := readFrameReuse(r, &scratch)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
}

// roundTrip sends m alone through a fresh encoder and decoder.
func roundTrip(t testing.TB, m Message) Message {
	t.Helper()
	got := decodeFrames(t, encodeFrames(t, m))
	if len(got) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(got))
	}
	return got[0]
}

func TestFrameRoundTrip(t *testing.T) {
	values := []any{"hello", nil, bytes.Repeat([]byte{0xAB}, 100_000), 7}
	msgs := make([]Message, len(values))
	for i, v := range values {
		msgs[i] = PacketMessage(&pipeline.Packet{Seq: uint64(i), Value: v})
	}
	got := decodeFrames(t, encodeFrames(t, msgs...))
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(msgs))
	}
	for i, want := range msgs {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestFrameTooLargeWrite(t *testing.T) {
	var e encoder
	e.buf = append(e.buf, "kept"...)
	_, err := e.appendFrame(PacketMessage(&pipeline.Packet{Value: make([]byte, MaxFrameSize)}))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write = %v, want ErrFrameTooLarge", err)
	}
	if string(e.buf) != "kept" {
		t.Fatalf("oversized write left %d bytes in the buffer, want the 4 already there", len(e.buf))
	}
}

func TestFrameTooLargeRead(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	var scratch []byte
	if _, err := readFrameReuse(bytes.NewReader(hdr[:]), &scratch); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read = %v, want ErrFrameTooLarge", err)
	}
	if cap(scratch) != 0 {
		t.Fatalf("oversized read grew the scratch to %d bytes", cap(scratch))
	}
}

func TestFrameShortPayload(t *testing.T) {
	wire := encodeFrames(t, PacketMessage(&pipeline.Packet{SourceStage: "hello"}))
	var scratch []byte
	for cut := 1; cut < len(wire); cut++ {
		_, err := readFrameReuse(bytes.NewReader(wire[:cut]), &scratch)
		if err == nil {
			t.Fatalf("frame cut to %d of %d bytes: read = %v", cut, len(wire), err)
		}
	}
}

func TestCodecPacketRoundTrip(t *testing.T) {
	pkt := &pipeline.Packet{
		SourceStage:    "sampler",
		SourceInstance: 3,
		Seq:            42,
		Items:          7,
		WireSize:       128,
		Value:          "payload",
	}
	got := roundTrip(t, PacketMessage(pkt)).Packet()
	if got.SourceStage != "sampler" || got.SourceInstance != 3 || got.Seq != 42 ||
		got.Items != 7 || got.WireSize != 128 || got.Value.(string) != "payload" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCodecExceptionRoundTrip(t *testing.T) {
	m := roundTrip(t, ExceptionMessage(adapt.ExceptionOverload))
	if m.Kind != KindException || m.Exception != adapt.ExceptionOverload {
		t.Fatalf("decoded %+v", m)
	}
}

// TestCodecRoundTripCases covers the header fields' edge values: the zero
// Birth, the virtual clock's epoch, a Final marker with no value, an
// exception frame, and negative and maximal integers.
func TestCodecRoundTripCases(t *testing.T) {
	cases := map[string]Message{
		"zero birth":  PacketMessage(&pipeline.Packet{Seq: 1, Value: 1}),
		"epoch birth": PacketMessage(&pipeline.Packet{Seq: 2, Birth: clock.Epoch, TraceID: 5, Value: 2}),
		"final":       {Kind: KindPacket, Final: true},
		"exception":   ExceptionMessage(adapt.ExceptionUnderload),
		"extremes": {Kind: KindPacket, SourceStage: "s", SourceInstance: -1, Seq: math.MaxUint64,
			Items: math.MinInt64, WireSize: math.MaxInt64, TraceID: math.MaxUint64, TraceHops: 255,
			Birth: time.Unix(0, -1).UTC()},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			got := roundTrip(t, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		})
	}
	if m := roundTrip(t, cases["final"]); m.Value != nil || !m.Birth.IsZero() {
		t.Fatalf("final marker decoded with value %v, birth %v", m.Value, m.Birth)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	var d decoder
	if _, err := d.decode([]byte("not a frame")); err == nil {
		t.Fatal("garbage decoded")
	}
	// frame returns a valid frame of m, less its length prefix, for a
	// test to corrupt.
	frame := func(m Message) []byte { return encodeFrames(t, m)[4:] }
	packet := PacketMessage(&pipeline.Packet{SourceStage: "relay", Seq: 9, Value: 3})
	bad := map[string][]byte{}
	b := frame(packet)
	b[1] = 0
	bad["zero kind"] = b
	b = frame(packet)
	b[1] = 9
	bad["unknown kind"] = b
	b = frame(packet)
	b[0] = wireVersion + 1
	bad["bad version"] = b
	b = frame(packet)
	b[2] |= 0x80
	bad["unknown flag"] = b
	b = frame(packet)
	b[2] &^= flagReset
	bad["value outside a gob stream"] = b
	b = frame(ExceptionMessage(adapt.ExceptionOverload))
	b[2] |= flagValue | flagReset
	bad["exception with value"] = append(b, frame(packet)[len(b):]...)
	bad["trailing byte after header"] = append(frame(Message{Kind: KindPacket, Final: true}), 0)
	bad["trailing byte after value"] = append(frame(packet), 0)
	hdr := frame(Message{Kind: KindPacket, SourceStage: "relay", Seq: 1 << 40})
	for cut := 0; cut < len(hdr); cut++ {
		bad[fmt.Sprintf("header cut to %d", cut)] = hdr[:cut]
	}
	val := frame(packet)
	bad["value cut short"] = val[:len(val)-1]
	for name, b := range bad {
		var d decoder
		if m, err := d.decode(b); err == nil {
			t.Errorf("%s: decoded %+v", name, m)
		}
	}
	// The encoder refuses what the decoder would reject.
	var e encoder
	for _, m := range []Message{{}, {Kind: KindException, Value: 1}, {Kind: KindException, Exception: 256}} {
		if _, err := e.appendFrame(m); err == nil {
			t.Errorf("encoded %+v", m)
		}
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 10; i++ {
		if err := cli.Send(PacketMessage(&pipeline.Packet{Seq: uint64(i), Value: i})); err != nil {
			t.Fatal(err)
		}
	}
	cli.Send(ExceptionMessage(adapt.ExceptionUnderload))

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 11 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d messages, want 11", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 10; i++ {
		if got[i].Kind != KindPacket || got[i].Seq != uint64(i) {
			t.Fatalf("message %d = %+v", i, got[i])
		}
	}
	if got[10].Kind != KindException {
		t.Fatalf("last message = %+v, want exception", got[10])
	}
}

func TestConcurrentClients(t *testing.T) {
	var count sync.Map
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		count.Store(m.Value.(int), true)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, per = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < per; i++ {
				if err := cli.Send(PacketMessage(&pipeline.Packet{Value: c*per + i})); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		count.Range(func(_, _ any) bool { n++; return true })
		if n == clients*per {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d distinct values, want %d", n, clients*per)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientSendAfterClose(t *testing.T) {
	srv, _ := Listen("127.0.0.1:0", func(Message) {})
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	cli.Close() // idempotent
	if err := cli.Send(ExceptionMessage(adapt.ExceptionOverload)); err == nil {
		t.Fatal("Send on closed client succeeded")
	}
}

func TestListenRequiresHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestBridgedPipelines runs a two-process-shaped topology in one test: an
// upstream engine whose sink is an Egress, TCP in the middle, and a
// downstream engine whose source is an Ingress.
func TestBridgedPipelines(t *testing.T) {
	ingress := NewIngress(1, 16)
	var excs []adapt.Exception
	var excMu sync.Mutex
	ingress.OnException = func(e adapt.Exception) {
		excMu.Lock()
		excs = append(excs, e)
		excMu.Unlock()
	}
	srv, err := Listen("127.0.0.1:0", ingress.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Downstream engine: ingress -> collector.
	down := pipeline.New(clock.NewScaled(1000))
	inSt, _ := down.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
	var mu sync.Mutex
	var got []int
	coll := &collectProc{fn: func(v any) {
		mu.Lock()
		got = append(got, v.(int))
		mu.Unlock()
	}}
	collSt, _ := down.AddProcessorStage("collect", 0, coll, pipeline.StageConfig{})
	down.Connect(inSt, collSt, nil)

	downDone := make(chan error, 1)
	go func() { downDone <- down.Run(context.Background()) }()

	// Upstream engine: source -> egress.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	up := pipeline.New(clock.NewScaled(1000))
	src, _ := up.AddSourceStage("src", 0, &intSource{n: 20}, pipeline.StageConfig{})
	eg, _ := up.AddProcessorStage("egress", 0, NewEgress(cli), pipeline.StageConfig{})
	up.Connect(src, eg, nil)
	if err := up.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-downDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("downstream engine never finished")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 20 {
		t.Fatalf("downstream received %d values, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestIngressDefaults(t *testing.T) {
	in := NewIngress(0, 0)
	if in.ExpectFinals != 1 {
		t.Fatalf("ExpectFinals default = %d, want 1", in.ExpectFinals)
	}
	if cap(in.ch) != 64 {
		t.Fatalf("buffer default = %d, want 64", cap(in.ch))
	}
}

// intSource emits 0..n-1.
type intSource struct{ n int }

func (s *intSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
	return nil
}

// collectProc calls fn for every received value.
type collectProc struct{ fn func(any) }

func (c *collectProc) Init(*pipeline.Context) error { return nil }
func (c *collectProc) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	c.fn(pkt.Value)
	return nil
}
func (c *collectProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// TestExceptionBackChannel exercises the full bidirectional control plane:
// the downstream host broadcasts exceptions and the upstream client's
// ReadLoop delivers them.
func TestExceptionBackChannel(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	got := make(chan Message, 4)
	go cli.ReadLoop(func(m Message) { got <- m })

	// The server only learns of the connection after the first frame.
	if err := cli.Send(PacketMessage(&pipeline.Packet{Value: 1})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := srv.Broadcast(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-got:
			if m.Kind != KindException || m.Exception != adapt.ExceptionOverload {
				t.Fatalf("back-channel delivered %+v", m)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("exception never came back")
			}
		}
	}
}

func TestReadLoopNilSafe(t *testing.T) {
	c := &Client{}
	c.ReadLoop(func(Message) {}) // closed client: returns immediately
	srv, _ := Listen("127.0.0.1:0", func(Message) {})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()
	cli.ReadLoop(nil) // nil handler: returns immediately
}

// TestBatchFramesReadBackIdentical checks that the gob stream lives in the
// encoder, not in the buffer: frames encoded into one buffer and frames
// encoded one per buffer produce the same wire bytes and read back alike.
func TestBatchFramesReadBackIdentical(t *testing.T) {
	msgs := []Message{
		PacketMessage(&pipeline.Packet{Seq: 1, Value: "alpha"}),
		{Kind: KindPacket, Seq: 2},
		PacketMessage(&pipeline.Packet{Seq: 3, Value: bytes.Repeat([]byte{0x5C}, 9000)}),
		ExceptionMessage(adapt.ExceptionOverload),
		PacketMessage(&pipeline.Packet{Seq: 4, Value: "omega"}),
	}
	batched := encodeFrames(t, msgs...)
	var single []byte
	var e encoder
	for _, m := range msgs {
		e.buf = e.buf[:0]
		if _, err := e.appendFrame(m); err != nil {
			t.Fatal(err)
		}
		single = append(single, e.buf...)
	}
	if !bytes.Equal(batched, single) {
		t.Fatal("batched wire bytes differ from frame-at-a-time encoding")
	}
	got := decodeFrames(t, batched)
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("read back %+v, want %+v", got, msgs)
	}
}

func TestSendBatchDeliveredInOrder(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var seqs []uint64
	done := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Seq)
		if len(seqs) == n {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = PacketMessage(&pipeline.Packet{Seq: uint64(i), Value: i})
	}
	if err := cli.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch not fully delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("message %d has seq %d: batch order not preserved", i, s)
		}
	}
}

func TestSendBatchOnClosedClient(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := cli.SendBatch([]Message{PacketMessage(&pipeline.Packet{})}); err == nil {
		t.Fatal("SendBatch on closed client succeeded")
	}
}

func TestEgressBatchFlushesAtBatchAndFinish(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	done := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		if m.Final {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	eg := NewEgressBatch(cli, 4)
	// 6 packets: one full flush of 4, then 2 flushed by Finish with the
	// final marker.
	for i := 0; i < 6; i++ {
		if err := eg.Process(nil, &pipeline.Packet{Seq: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eg.Finish(nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("final marker never arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 7 {
		t.Fatalf("received %d messages, want 7 (6 packets + final)", len(got))
	}
	for i := 0; i < 6; i++ {
		if got[i].Seq != uint64(i) || got[i].Final {
			t.Fatalf("message %d = %+v, want seq %d", i, got[i], i)
		}
	}
	if !got[6].Final {
		t.Fatal("last message is not the final marker")
	}
}

func TestCloseWriteDrainsBothDirections(t *testing.T) {
	// The shutdown hazard in a bidirectional bridge: the server pushes an
	// exception the client has not read yet, and the client then ends its
	// stream. A full Close with that frame unread resets the connection,
	// which can destroy the client's still-in-flight frames (including
	// the Final marker) on the server side. CloseWrite must instead
	// deliver every forward frame, leave the reverse frame readable, and
	// only then let the connection wind down.
	var (
		mu    sync.Mutex
		seen  []*pipeline.Packet
		first = make(chan struct{})
		once  sync.Once
		all   = make(chan struct{})
	)
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		if m.Kind != KindPacket {
			return
		}
		mu.Lock()
		seen = append(seen, m.Packet())
		n := len(seen)
		mu.Unlock()
		once.Do(func() { close(first) })
		if n == 11 {
			close(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// The server only learns of the connection after the first frame.
	if err := cli.Send(PacketMessage(&pipeline.Packet{Seq: 0})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the first frame")
	}
	// Park an exception in the client's receive queue, deliberately
	// unread at half-close time.
	if err := srv.Broadcast(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
		t.Fatal(err)
	}

	msgs := make([]Message, 0, 10)
	for i := 1; i <= 9; i++ {
		msgs = append(msgs, PacketMessage(&pipeline.Packet{Seq: uint64(i)}))
	}
	msgs = append(msgs, PacketMessage(&pipeline.Packet{Final: true}))
	if err := cli.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	// Every forward frame survives the half-close.
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		t.Fatalf("server received %d of 11 frames after CloseWrite", n)
	}
	mu.Lock()
	if !seen[10].Final {
		t.Error("last delivered frame is not the final marker")
	}
	mu.Unlock()

	// And the reverse direction is still readable afterwards.
	excCh := make(chan adapt.Exception, 1)
	go cli.ReadLoop(func(m Message) {
		if m.Kind == KindException {
			select {
			case excCh <- m.Exception:
			default:
			}
		}
	})
	select {
	case e := <-excCh:
		if e != adapt.ExceptionOverload {
			t.Fatalf("reverse channel delivered %v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exception unreadable after CloseWrite")
	}
}

func TestIngressDeliverAfterRunDrops(t *testing.T) {
	// Once the stream has ended, stray packets must be dropped instead of
	// wedging the delivering goroutine (and with it Server.Close) on a
	// full channel.
	ingress := NewIngress(1, 4)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, _ := eng.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
	sink := &collectProc{fn: func(any) {}}
	sinkSt, _ := eng.AddProcessorStage("sink", 0, sink, pipeline.StageConfig{})
	eng.Connect(inSt, sinkSt, nil)

	ingress.Deliver(PacketMessage(&pipeline.Packet{Final: true}))
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ { // far more than the channel buffers
			ingress.Deliver(PacketMessage(&pipeline.Packet{Seq: uint64(i)}))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked after Run returned")
	}
}
