package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/obs"
)

// Server accepts connections and dispatches request frames to registered
// method handlers. Each connection gets a Session (per-connection state the
// services hang stateful resources on — DFS writer handles, open gateway
// transactions) and each request runs in its own goroutine, so one slow
// handler never blocks the connection's other pipelined requests. Responses
// are written under a per-connection mutex, in completion order.

// Handler serves one method: decode the body, do the work, encode the
// response body. A returned error crosses the wire as an error frame with
// the code CodeFor picks.
type Handler func(ctx context.Context, sess *Session, body []byte) ([]byte, error)

// StreamHandler serves one streaming method: decode the request, push any
// number of elements through st.Send, and return. A nil return ends the
// stream with a clean terminal response; an error crosses as the terminal
// error frame. The handler's context is cancelled when the connection
// closes, so long-lived streams never outlive their consumer.
type StreamHandler func(ctx context.Context, sess *Session, body []byte, st *ServerStream) error

// ServerStream is the send side of one streaming exchange. Send is safe for
// the single handler goroutine; frames interleave with the connection's
// other responses under the shared write mutex.
type ServerStream struct {
	nc     net.Conn
	wmu    *sync.Mutex
	method byte
	id     uint64
}

// ID returns the stream's request ID — the handle the client's credit and
// cancel messages carry.
func (st *ServerStream) ID() uint64 { return st.id }

// Send pushes one stream element. A write failure closes the connection and
// is returned so the handler stops.
func (st *ServerStream) Send(body []byte) error {
	buf, err := AppendFrame(make([]byte, 0, 4+frameHeaderBytes+len(body)),
		Frame{Ver: Version, Kind: KindStream, Method: st.method, ID: st.id, Body: body})
	if err != nil {
		return err
	}
	st.wmu.Lock()
	_, werr := st.nc.Write(buf)
	st.wmu.Unlock()
	if werr != nil {
		st.nc.Close()
	}
	return werr
}

// Session is one connection's server-side state. Services store their
// per-connection resources under private keys and register cleanups that
// run when the connection closes — an abandoned connection must not leak
// DFS writers or open transactions.
type Session struct {
	id uint64

	mu       sync.Mutex
	vals     map[string]any
	closers  []func()
	closed   bool
	remoteIP string
}

// ID returns the session's server-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Value returns the session state stored under key, or nil.
func (s *Session) Value(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

// SetValue stores per-session state under key.
func (s *Session) SetValue(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		s.vals = make(map[string]any)
	}
	s.vals[key] = v
}

// OnClose registers a cleanup to run when the connection closes. Running
// immediately if the session is already closed.
func (s *Session) OnClose(fn func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fn()
		return
	}
	s.closers = append(s.closers, fn)
	s.mu.Unlock()
}

// close runs the session's cleanups (in registration order).
func (s *Session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	for _, fn := range closers {
		fn()
	}
}

// Server is an rpc listener: register handlers, then Serve a listener.
type Server struct {
	reg            *obs.Registry // optional; nil disables metrics
	met            serverMetrics // reg's per-request instruments
	maxInflight    int           // per-connection unary request cap; 0 = unlimited
	handlers       [256]Handler
	streamHandlers [256]StreamHandler

	sessSeq atomic.Uint64

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Registry, when non-nil, receives per-RPC metrics
	// (rpc.server.requests, rpc.server.errors, rpc.server.latency,
	// rpc.server.conns, rpc.server.inflight_stalls).
	Registry *obs.Registry

	// MaxInflightPerConn caps concurrently-executing unary requests per
	// connection. At the cap the connection's read loop stops reading, so a
	// client flooding one connection feels TCP backpressure instead of
	// spawning an unbounded handler goroutine pile. Streaming requests and
	// flow-control messages (credits, cancels) are exempt — they are how a
	// client drains existing work. 0 means unlimited.
	MaxInflightPerConn int
}

// NewServer creates a server with default config. reg, when non-nil,
// receives per-RPC metrics.
func NewServer(reg *obs.Registry) *Server {
	return NewServerWithConfig(ServerConfig{Registry: reg})
}

// NewServerWithConfig creates a server.
func NewServerWithConfig(cfg ServerConfig) *Server {
	return &Server{
		reg:         cfg.Registry,
		met:         serverMetrics{reg: cfg.Registry},
		maxInflight: cfg.MaxInflightPerConn,
		conns:       make(map[net.Conn]struct{}),
	}
}

// flowControlMethod reports whether a method is stream flow control —
// exempt from the inflight cap so a saturated connection can still drain
// its streams.
func flowControlMethod(m byte) bool {
	return m == WCredit || m == WCancel
}

// Handle registers the handler for one method code. Registration must
// finish before Serve; handlers are not synchronized.
func (s *Server) Handle(method byte, h Handler) { s.handlers[method] = h }

// HandleStream registers the streaming handler for one method code. A
// method is either unary or streaming, never both.
func (s *Server) HandleStream(method byte, h StreamHandler) { s.streamHandlers[method] = h }

// Serve accepts connections on ln until the server closes. It returns the
// accept error that ended the loop (nil after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("rpc: server closed")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// Close stops accepting, closes every connection (running session
// cleanups), and waits for in-flight handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.lns
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
}

// serveConn runs one connection: preamble exchange, then the request loop.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	sess := &Session{id: s.sessSeq.Add(1), remoteIP: nc.RemoteAddr().String()}
	if s.reg != nil {
		s.reg.Gauge("rpc.server.conns").Add(1)
	}
	defer func() {
		sess.close()
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		if s.reg != nil {
			s.reg.Gauge("rpc.server.conns").Add(-1)
		}
	}()

	_ = nc.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := ReadPreamble(nc); err != nil {
		_ = WritePreamble(nc) // tell the peer what we speak, then hang up
		return
	}
	if err := WritePreamble(nc); err != nil {
		return
	}
	_ = nc.SetDeadline(time.Time{})

	br := bufio.NewReaderSize(nc, 64<<10)
	var wmu sync.Mutex
	// Connection-scoped context: cancelling it on teardown stops the
	// connection's long-lived stream handlers.
	connCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Per-connection inflight cap: a token per executing unary handler.
	// Acquiring in the read loop (not the handler goroutine) is the point —
	// at the cap the loop stops reading and the kernel's receive window
	// fills, pushing backpressure to the client rather than queueing frames.
	var sem chan struct{}
	if s.maxInflight > 0 {
		sem = make(chan struct{}, s.maxInflight)
	}
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return // connection-level failure or malformed frame: hang up
		}
		if f.Kind != KindRequest {
			return
		}
		acquired := false
		if sem != nil && s.streamHandlers[f.Method] == nil && !flowControlMethod(f.Method) {
			select {
			case sem <- struct{}{}:
			default:
				if s.reg != nil {
					s.met.stallCount().Add(1)
				}
				sem <- struct{}{}
			}
			acquired = true
		}
		s.wg.Add(1)
		go func(f Frame, acquired bool) {
			defer s.wg.Done()
			if acquired {
				defer func() { <-sem }()
			}
			if s.streamHandlers[f.Method] != nil {
				s.dispatchStream(connCtx, nc, &wmu, sess, f)
				return
			}
			s.dispatch(connCtx, nc, &wmu, sess, f)
		}(f, acquired)
	}
}

// dispatchStream runs one streaming request's handler, then writes its
// terminal frame.
func (s *Server) dispatchStream(connCtx context.Context, nc net.Conn, wmu *sync.Mutex, sess *Session, f Frame) {
	if s.reg != nil {
		s.met.request(f.Method)
		streams := s.met.streamGauge()
		streams.Add(1)
		defer streams.Add(-1)
	}

	var err error
	if len(f.Body) < 8 {
		err = fmt.Errorf("rpc: %s: missing deadline prefix", methodName(f.Method))
	} else {
		// Streaming requests ignore the (always-zero) deadline prefix:
		// their lifetime is the connection's, bounded by method-layer
		// cancellation.
		st := &ServerStream{nc: nc, wmu: wmu, method: f.Method, id: f.ID}
		err = s.streamHandlers[f.Method](connCtx, sess, f.Body[8:], st)
	}
	if err != nil && s.reg != nil {
		s.met.errorCount().Add(1)
	}

	out := Frame{Ver: Version, ID: f.ID, Method: f.Method, Kind: KindResponse}
	if err != nil {
		out.Kind = KindError
		out.Body = EncodeError(err)
	}
	buf, _ := AppendFrame(make([]byte, 0, 4+frameHeaderBytes+len(out.Body)), out)
	wmu.Lock()
	_, werr := nc.Write(buf)
	wmu.Unlock()
	if werr != nil {
		nc.Close()
	}
}

// dispatch runs one request's handler and writes its response frame.
func (s *Server) dispatch(connCtx context.Context, nc net.Conn, wmu *sync.Mutex, sess *Session, f Frame) {
	var start time.Time
	if s.reg != nil {
		s.met.request(f.Method)
		start = time.Now()
	}

	resp, err := s.handle(connCtx, sess, f)

	if s.reg != nil {
		s.met.latencyHist().Record(time.Since(start))
		if err != nil {
			s.met.errorCount().Add(1)
		}
	}

	out := Frame{Ver: Version, ID: f.ID, Method: f.Method}
	if err != nil {
		out.Kind = KindError
		out.Body = EncodeError(err)
	} else {
		out.Kind = KindResponse
		out.Body = resp
	}
	buf, aerr := AppendFrame(make([]byte, 0, 4+frameHeaderBytes+len(out.Body)), out)
	if aerr != nil {
		// Response exceeds the frame limit: degrade to an error frame.
		out.Kind, out.Body = KindError, EncodeError(aerr)
		buf, _ = AppendFrame(buf[:0], out)
	}
	wmu.Lock()
	_, werr := nc.Write(buf)
	wmu.Unlock()
	if werr != nil {
		nc.Close() // poisons the read loop; session cleanup follows
	}
}

// handle decodes the deadline prefix and runs the method handler.
func (s *Server) handle(connCtx context.Context, sess *Session, f Frame) ([]byte, error) {
	if len(f.Body) < 8 {
		return nil, fmt.Errorf("rpc: %s: missing deadline prefix", methodName(f.Method))
	}
	deadline := binary.BigEndian.Uint64(f.Body[:8])
	body := f.Body[8:]

	h := s.handlers[f.Method]
	if h == nil {
		return nil, &RemoteError{Code: CodeUnknownMethod, Msg: fmt.Sprintf("unknown method %s", methodName(f.Method))}
	}

	ctx := connCtx
	if deadline != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, int64(deadline)))
		defer cancel()
	}
	return h(ctx, sess, body)
}
