package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is one client connection: many calls can be in flight concurrently
// (pipelining); a background read loop demultiplexes responses by request
// ID. Any connection-level failure poisons the Conn — every pending and
// future call fails with an error wrapping kvstore.ErrTransport — and the
// Pool dials a fresh one on the next call.

// dialTimeout bounds the TCP connect plus preamble exchange.
const dialTimeout = 5 * time.Second

// Conn is a multiplexing client connection to one rpc server.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Frame
	streams map[uint64]chan Frame // open streaming exchanges, by request ID
	closed  bool
	err     error // first connection-level failure

	deadc chan struct{} // closed when the connection is poisoned
}

// Dial connects to an rpc server and exchanges the version preamble.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, transportErr(addr, "dial", err)
	}
	_ = nc.SetDeadline(time.Now().Add(dialTimeout))
	if err := WritePreamble(nc); err != nil {
		nc.Close()
		return nil, transportErr(addr, "preamble", err)
	}
	if _, err := ReadPreamble(nc); err != nil {
		nc.Close()
		return nil, transportErr(addr, "preamble", err)
	}
	_ = nc.SetDeadline(time.Time{})
	conn := &Conn{
		addr:    addr,
		c:       nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		pending: make(map[uint64]chan Frame),
		streams: make(map[uint64]chan Frame),
		deadc:   make(chan struct{}),
	}
	go conn.readLoop()
	return conn, nil
}

// Addr returns the dialed address.
func (c *Conn) Addr() string { return c.addr }

// readLoop demultiplexes response frames to their callers until the
// connection dies, then fails every pending call.
func (c *Conn) readLoop() {
	for {
		f, err := ReadFrame(c.br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		if ch, ok := c.pending[f.ID]; ok {
			delete(c.pending, f.ID)
			c.mu.Unlock()
			ch <- f // buffered; never blocks
			continue
		}
		if ch, ok := c.streams[f.ID]; ok {
			if f.Kind != KindStream {
				// Terminal frame (KindResponse / KindError): the stream is
				// over; nothing further routes to it.
				delete(c.streams, f.ID)
			}
			c.mu.Unlock()
			select {
			case ch <- f:
			default:
				// The buffer is sized for the credit window plus the
				// terminal frame; overflow means the server ignored flow
				// control. Never block the read loop — poison instead.
				c.fail(fmt.Errorf("stream %d overran its credit window", f.ID))
				return
			}
			continue
		}
		c.mu.Unlock()
		// Unknown ID: the caller gave up (context cancelled). Drop it.
	}
}

// fail poisons the connection: the socket closes, every pending call gets
// the transport error, and future calls fail fast.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = transportErr(c.addr, "conn", cause)
	pending := c.pending
	c.pending = nil
	c.streams = nil
	close(c.deadc) // wakes blocked stream Recvs
	c.mu.Unlock()
	c.c.Close()
	for _, ch := range pending {
		ch <- Frame{Kind: KindError, Body: nil} // sentinel; Call checks c.err
	}
}

// Close tears the connection down; pending calls fail with a transport
// error.
func (c *Conn) Close() error {
	c.fail(fmt.Errorf("closed"))
	return nil
}

// Broken reports whether the connection has been poisoned.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Call performs one request/response exchange. The context's deadline
// travels in the request body; cancellation abandons the wait (the response
// frame, if it ever arrives, is dropped by the read loop). Connection-level
// failures wrap kvstore.ErrTransport; handler errors decode to RemoteError.
func (c *Conn) Call(ctx context.Context, method byte, body []byte) ([]byte, error) {
	var deadline uint64
	if t, ok := ctx.Deadline(); ok {
		deadline = uint64(t.UnixNano())
	}

	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	buf, err := appendRequest(method, id, deadline, body)
	if err != nil {
		c.forget(id)
		return nil, err
	}

	c.wmu.Lock()
	_, werr := c.c.Write(buf)
	c.wmu.Unlock()
	if werr != nil {
		c.forget(id)
		c.fail(werr)
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}

	select {
	case f := <-ch:
		c.mu.Lock()
		cerr := c.err
		c.mu.Unlock()
		if cerr != nil && f.Body == nil && f.Kind == KindError {
			return nil, cerr // poisoned-connection sentinel
		}
		switch f.Kind {
		case KindResponse:
			return f.Body, nil
		case KindError:
			return nil, DecodeError(f.Body)
		default:
			err := fmt.Errorf("response kind %d", f.Kind)
			c.fail(err)
			return nil, transportErr(c.addr, methodName(method), err)
		}
	case <-ctx.Done():
		c.forget(id)
		return nil, ctx.Err()
	}
}

// appendRequest encodes one request frame — header, deadline prefix and
// method payload — in a single allocation.
func appendRequest(method byte, id, deadline uint64, body []byte) ([]byte, error) {
	buf, err := appendFrameHeader(make([]byte, 0, 4+frameHeaderBytes+8+len(body)), Version, KindRequest, method, id, 8+len(body))
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, deadline)
	return append(buf, body...), nil
}

// forget abandons a pending request (cancellation, write failure).
func (c *Conn) forget(id uint64) {
	c.mu.Lock()
	if c.pending != nil {
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// ClientStream is the receive side of one streaming exchange: KindStream
// frames arrive in order until a terminal KindResponse (clean end) or
// KindError. Recv from a single goroutine.
type ClientStream struct {
	c      *Conn
	id     uint64
	frames chan Frame
}

// Stream opens a streaming exchange: one request whose response is a
// sequence of KindStream frames. buffer sizes the receive queue and must be
// at least the credit window the caller grants the server (plus the terminal
// frame, which Stream accounts for itself) — the read loop never blocks on a
// stream, it poisons the connection instead. Streams carry no deadline:
// cancellation is a method-layer concern (WCancel) or a connection close.
func (c *Conn) Stream(method byte, body []byte) (*ClientStream, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	// Window credits + terminal frame + slack for progress frames granted
	// in the same window.
	ch := make(chan Frame, streamRecvBuffer)
	c.streams[id] = ch
	c.mu.Unlock()

	buf, err := appendRequest(method, id, 0, body)
	if err != nil {
		c.dropStream(id)
		return nil, err
	}
	c.wmu.Lock()
	_, werr := c.c.Write(buf)
	c.wmu.Unlock()
	if werr != nil {
		c.dropStream(id)
		c.fail(werr)
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	return &ClientStream{c: c, id: id, frames: ch}, nil
}

// streamRecvBuffer bounds one stream's receive queue. It must cover the
// largest credit window a client grants (DefaultWatchWindow) plus the
// terminal frame.
const streamRecvBuffer = 4 + 2*defaultWatchWindow

// dropStream abandons a stream registration.
func (c *Conn) dropStream(id uint64) {
	c.mu.Lock()
	if c.streams != nil {
		delete(c.streams, id)
	}
	c.mu.Unlock()
}

// ID returns the stream's request ID — the handle credit and cancel
// messages reference.
func (s *ClientStream) ID() uint64 { return s.id }

// Recv returns the next stream element. done reports a clean end of stream
// (the terminal KindResponse); a terminal KindError decodes to the remote
// error; a poisoned connection surfaces the transport error.
func (s *ClientStream) Recv(ctx context.Context) (body []byte, done bool, err error) {
	for {
		// Drain delivered frames before checking for death, so elements
		// that arrived ahead of a failure are not lost.
		select {
		case f := <-s.frames:
			return s.frame(f)
		default:
		}
		select {
		case f := <-s.frames:
			return s.frame(f)
		case <-s.c.deadc:
			s.c.mu.Lock()
			err := s.c.err
			s.c.mu.Unlock()
			return nil, false, err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

func (s *ClientStream) frame(f Frame) ([]byte, bool, error) {
	switch f.Kind {
	case KindStream:
		return f.Body, false, nil
	case KindResponse:
		return f.Body, true, nil
	case KindError:
		return nil, false, DecodeError(f.Body)
	default:
		return nil, false, fmt.Errorf("%w: stream frame kind %d", ErrBadFrame, f.Kind)
	}
}

// Close abandons the stream client-side: later frames for its ID are
// dropped by the read loop. It does not tell the server — callers cancel at
// the method layer (WCancel) first when they can.
func (s *ClientStream) Close() { s.c.dropStream(s.id) }
