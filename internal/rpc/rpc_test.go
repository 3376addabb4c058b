package rpc

// Client/server plumbing tests: pipelining, deadline propagation, error
// mapping, session cleanup, reconnect-after-failure. These exercise the
// transport machinery in isolation with synthetic handlers; the end-to-end
// multi-process cluster tests live in internal/cluster.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/kvstore"
	"txkv/internal/obs"
)

// startTestServer serves s on an ephemeral port and returns its address.
func startTestServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(s.Close)
	return ln.Addr().String()
}

func TestCallRoundTripAndPipelining(t *testing.T) {
	const echo byte = 0x70
	s := NewServer(nil)
	var inFlight, maxInFlight atomic.Int64
	s.Handle(echo, func(_ context.Context, _ *Session, body []byte) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			cur := maxInFlight.Load()
			if n <= cur || maxInFlight.CompareAndSwap(cur, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // hold the slot so calls overlap
		inFlight.Add(-1)
		return append([]byte("echo:"), body...), nil
	})
	addr := startTestServer(t, s)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("m-%d", i)
			resp, err := c.Call(context.Background(), echo, []byte(want))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if string(resp) != "echo:"+want {
				t.Errorf("call %d: got %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
	if maxInFlight.Load() < 2 {
		t.Errorf("no pipelining observed: max in-flight %d", maxInFlight.Load())
	}
}

func TestDeadlinePropagation(t *testing.T) {
	const slow byte = 0x71
	s := NewServer(nil)
	var sawDeadline atomic.Bool
	s.Handle(slow, func(ctx context.Context, _ *Session, _ []byte) ([]byte, error) {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline.Store(true)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	addr := startTestServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, slow, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline did not cut the wait: %v", d)
	}
	// Give the server's handler a beat to observe its propagated ctx.
	time.Sleep(100 * time.Millisecond)
	if !sawDeadline.Load() {
		t.Fatal("server handler saw no propagated deadline")
	}
}

func TestErrorMappingAcrossWire(t *testing.T) {
	const failing byte = 0x72
	s := NewServer(nil)
	s.Handle(failing, func(_ context.Context, _ *Session, _ []byte) ([]byte, error) {
		return nil, fmt.Errorf("region t.r1: %w", kvstore.ErrRegionNotServing)
	})
	addr := startTestServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), failing, nil)
	if !errors.Is(err, kvstore.ErrRegionNotServing) {
		t.Fatalf("got %v, want ErrRegionNotServing across the wire", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeRegionNotServing {
		t.Fatalf("got %v, want RemoteError with CodeRegionNotServing", err)
	}

	// Unregistered method.
	_, err = c.Call(context.Background(), 0x7F, nil)
	if !errors.As(err, &re) || re.Code != CodeUnknownMethod {
		t.Fatalf("unknown method: got %v", err)
	}
}

func TestSessionCleanupOnDisconnect(t *testing.T) {
	const open byte = 0x73
	s := NewServer(nil)
	cleaned := make(chan struct{})
	s.Handle(open, func(_ context.Context, sess *Session, _ []byte) ([]byte, error) {
		sess.OnClose(func() { close(cleaned) })
		return nil, nil
	})
	addr := startTestServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), open, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-cleaned:
	case <-time.After(5 * time.Second):
		t.Fatal("session cleanup did not run after disconnect")
	}
}

func TestPoolReconnectsAfterServerRestart(t *testing.T) {
	const ping byte = 0x74
	handler := func(_ context.Context, _ *Session, _ []byte) ([]byte, error) {
		return []byte("pong"), nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s1 := NewServer(nil)
	s1.Handle(ping, handler)
	go func() { _ = s1.Serve(ln) }()

	p := NewPool(nil)
	defer p.Close()
	if _, err := p.Call(context.Background(), addr, ping, nil); err != nil {
		t.Fatalf("first call: %v", err)
	}

	// Kill the server: the pooled connection dies; calls fail with a
	// transport error.
	s1.Close()
	if _, err := p.Call(context.Background(), addr, ping, nil); !errors.Is(err, kvstore.ErrTransport) {
		t.Fatalf("dead server: got %v, want ErrTransport", err)
	}

	// Restart on the same address: the pool must redial transparently.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err) // port raced away; environment-dependent
	}
	s2 := NewServer(nil)
	s2.Handle(ping, handler)
	go func() { _ = s2.Serve(ln2) }()
	defer s2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := p.Call(context.Background(), addr, ping, nil)
		if err == nil {
			if string(resp) != "pong" {
				t.Fatalf("got %q", resp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTransportErrorWrapsSentinel(t *testing.T) {
	// Dialing a dead address must produce the transport sentinel the
	// routing client keys its invalidate-then-re-resolve discipline on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); !errors.Is(err, kvstore.ErrTransport) {
		t.Fatalf("dial dead address: got %v, want ErrTransport", err)
	}
}

// TestRequestMetricsResolvedOnce: counting a request takes no registry
// lookup by name after the method's first request, while the registry —
// and so /metrics — shows exactly the instruments recorded to.
func TestRequestMetricsResolvedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(reg)
	s.met.request(RGet)
	if allocs := testing.AllocsPerRun(100, func() { s.met.request(RGet) }); allocs != 0 {
		t.Fatalf("counting a request allocates %v times; its metric name is rebuilt", allocs)
	}
	got := reg.Snapshot().Counters
	want := map[string]int64{"rpc.server.requests": 102, "rpc.server.req.r.get": 102}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry counters %v, want %v", got, want)
	}
}
