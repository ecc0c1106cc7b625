package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// labelTransport tags the calling goroutine with stage=transport so the
// obs.Profiler attributes framing/decoding CPU to the network plane rather
// than leaving it unlabeled.
func labelTransport() {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("stage", "transport")))
}

// Handler consumes messages arriving at a Server.
type Handler func(Message)

// Server accepts stage-to-stage connections and dispatches every decoded
// message to its handler. It is the listening half of a GATES grid-service
// instance's network endpoint.
type Server struct {
	ln      net.Listener
	handler Handler

	framesIn  atomic.Uint64
	bytesIn   atomic.Uint64
	framesOut atomic.Uint64 // broadcast (exception) frames written back
	bytesOut  atomic.Uint64

	mu      sync.Mutex
	writeMu sync.Mutex
	conns   map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup
}

// Listen starts a server on addr ("host:port"; ":0" picks a free port).
func Listen(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("transport: Listen requires a handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	labelTransport()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	labelTransport()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One reusable frame buffer and one decoder per connection: decode
	// copies everything it keeps, so the scratch can back the very next
	// frame.
	var scratch []byte
	var dec decoder
	for {
		frame, err := readFrameReuse(conn, &scratch)
		if err != nil {
			return // EOF or broken peer: connection ends
		}
		s.framesIn.Add(1)
		s.bytesIn.Add(uint64(len(frame)))
		msg, err := dec.decode(frame)
		if err != nil {
			return // corrupt peer: drop the connection
		}
		s.handler(msg)
	}
}

// Broadcast writes one message back to every live upstream connection —
// the §4 control plane over TCP: a stage host reports its over/under-load
// exceptions "to the sending server" on the connections that feed it.
// Broken peers are dropped silently (their read side ends the connection).
// m must carry no Value: a value frame belongs to one connection's gob
// stream, while a header-only frame reads the same on every connection.
func (s *Server) Broadcast(m Message) error {
	if m.Value != nil {
		return errors.New("transport: broadcast message carries a value")
	}
	// Encode once and write the same bytes to every connection in one
	// Write each.
	var enc encoder
	n, err := enc.appendFrame(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		s.writeMu.Lock()
		_, err := c.Write(enc.buf)
		s.writeMu.Unlock()
		if err != nil {
			c.Close()
			continue
		}
		s.framesOut.Add(1)
		s.bytesOut.Add(uint64(n))
	}
	return nil
}

// Close stops accepting, closes every live connection, and waits for the
// serving goroutines to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Client is the sending half of a stage-to-stage connection. It is safe for
// concurrent use. Messages the peer writes back (load exceptions) are
// consumed by ReadLoop.
type Client struct {
	framesOut atomic.Uint64
	bytesOut  atomic.Uint64

	mu   sync.Mutex
	conn net.Conn
	enc  encoder // guarded by mu: frames hit the wire in encoding order
}

// ReadLoop consumes messages the server writes back on this connection,
// dispatching each to handler; it returns when the connection closes. Run
// it in its own goroutine to receive the downstream host's load exceptions.
func (c *Client) ReadLoop(handler Handler) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil || handler == nil {
		return
	}
	labelTransport()
	var scratch []byte
	var dec decoder
	for {
		frame, err := readFrameReuse(conn, &scratch)
		if err != nil {
			return
		}
		m, err := dec.decode(frame)
		if err != nil {
			return
		}
		handler(m)
	}
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Send encodes and frames one message and writes it in one conn.Write.
func (c *Client) Send(m Message) error {
	return c.send([]Message{m})
}

// SendBatch encodes every message and flushes all frames in a single write
// under a single lock acquisition. Peers decode the result exactly as a
// sequence of Send calls; order is preserved. If any message fails to
// encode, none is sent.
func (c *Client) SendBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	return c.send(msgs)
}

// send encodes msgs into the client's frame buffer and writes them. The
// encoder is stateful, so encoding and writing share one critical section;
// if the frames do not all reach the wire, the encoder's gob stream is
// dropped and the next value frame starts a new one.
func (c *Client) send(msgs []Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("transport: client closed")
	}
	c.enc.buf = c.enc.buf[:0]
	var total uint64
	for _, m := range msgs {
		n, err := c.enc.appendFrame(m)
		if err != nil {
			c.enc.drop()
			return err
		}
		total += uint64(n)
	}
	if _, err := c.conn.Write(c.enc.buf); err != nil {
		c.enc.drop()
		return fmt.Errorf("transport: write frames: %w", err)
	}
	c.framesOut.Add(uint64(len(msgs)))
	c.bytesOut.Add(total)
	return nil
}

// CloseWrite half-closes the connection: the peer observes end-of-stream
// only after draining every frame already sent, while exception traffic
// flowing back stays readable here. Use it (followed by waiting for
// ReadLoop to end) instead of an immediate Close when reverse traffic may
// be in flight: fully closing a socket with unread data queued locally
// resets the connection, and the reset can destroy frames — including the
// end-of-stream marker — that the peer has not yet read.
func (c *Client) CloseWrite() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	if cw, ok := c.conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Close shuts the connection down. It is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
