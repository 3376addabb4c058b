package rpc

import (
	"context"
	"errors"
	"sync"
	"time"

	"txkv/internal/obs"
)

// Pool maintains at most one connection per address, dialing lazily and
// replacing broken connections on the next call — the reconnect policy.
// Calls on a healthy connection pipeline; a transport failure drops the
// connection so the next call redials (the address may have come back, or
// the caller's layout cache has been invalidated and it will never ask for
// this address again).
type Pool struct {
	reg *obs.Registry // optional; nil disables metrics
	met poolMetrics   // reg's per-call instruments

	mu     sync.Mutex
	conns  map[string]*Conn
	closed bool
}

// NewPool creates a connection pool. reg, when non-nil, receives client-
// side RPC metrics (rpc.client.calls, rpc.client.errors,
// rpc.client.redials, rpc.client.latency).
func NewPool(reg *obs.Registry) *Pool {
	return &Pool{reg: reg, met: poolMetrics{reg: reg}, conns: make(map[string]*Conn)}
}

// conn returns the live connection for addr, dialing if needed.
func (p *Pool) conn(addr string) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, transportErr(addr, "pool", errPoolClosed)
	}
	if c, ok := p.conns[addr]; ok && !c.Broken() {
		p.mu.Unlock()
		return c, nil
	}
	if old, ok := p.conns[addr]; ok {
		old.Close()
		delete(p.conns, addr)
		if p.reg != nil {
			p.reg.Counter("rpc.client.redials").Add(1)
		}
	}
	p.mu.Unlock()

	// Dial outside the lock: a slow or dead address must not stall calls to
	// healthy ones. Racing dials to one address are reconciled below
	// (loser's connection is closed).
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, transportErr(addr, "pool", errPoolClosed)
	}
	if cur, ok := p.conns[addr]; ok && !cur.Broken() {
		p.mu.Unlock()
		c.Close()
		return cur, nil
	}
	p.conns[addr] = c
	p.mu.Unlock()
	return c, nil
}

// Call performs one exchange against addr, dialing or redialing as needed.
func (p *Pool) Call(ctx context.Context, addr string, method byte, body []byte) ([]byte, error) {
	var start time.Time
	if p.reg != nil {
		p.met.callCount().Add(1)
		start = time.Now()
	}
	resp, err := p.call(ctx, addr, method, body)
	if p.reg != nil {
		p.met.latencyHist().Record(time.Since(start))
		if err != nil {
			p.met.errorCount().Add(1)
		}
	}
	return resp, err
}

func (p *Pool) call(ctx context.Context, addr string, method byte, body []byte) ([]byte, error) {
	c, err := p.conn(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(ctx, method, body)
	if c.Broken() {
		p.drop(addr, c)
	}
	return resp, err
}

// drop removes a broken connection so the next call redials.
func (p *Pool) drop(addr string, c *Conn) {
	p.mu.Lock()
	if p.conns[addr] == c {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
}

// Close tears down every connection; subsequent calls fail.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

var errPoolClosed = errors.New("pool closed")
