package core

import (
	"fmt"
	"sync"
	"time"

	"txkv/internal/coord"
	"txkv/internal/kv"
)

// ClientAgentConfig configures a client's heartbeat agent.
type ClientAgentConfig struct {
	// ClientID is the client's identity (without the session prefix).
	ClientID string
	// HeartbeatInterval is the heartbeat cadence (paper §4.3 varies this
	// from 50 ms to 10 s).
	HeartbeatInterval time.Duration
	// SessionTTL is the coordination-session TTL; missing heartbeats for
	// this long declares the client dead. Defaults to 4x the interval.
	SessionTTL time.Duration
	// QueueAlertThreshold triggers OnQueueAlert when |FQ| exceeds it
	// (paper §3.2 monitor). Zero disables.
	QueueAlertThreshold int
	// OnFatal is invoked when the agent loses its session (network
	// partition / missed heartbeats): the client must terminate itself,
	// because the recovery manager is already replaying on its behalf.
	OnFatal func(error)
	// OnQueueAlert is invoked when the flush queue exceeds the threshold.
	OnQueueAlert func(clientID string, queueLen int)
}

func (c ClientAgentConfig) withDefaults() ClientAgentConfig {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 4 * c.HeartbeatInterval
	}
	return c
}

// ClientAgent owns a client's tracker and heartbeat loop: Algorithm 1 in
// full. It registers a coordination session, piggybacks T_F(c) on periodic
// heartbeats, advances the threshold before each beat, and unregisters
// cleanly on Stop (so the global T_F is not blocked by departed clients).
type ClientAgent struct {
	cfg        ClientAgentConfig
	svc        *coord.Service
	lastIssued func() kv.Timestamp
	tracker    *ClientTracker

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	fatal bool
}

// NewClientAgent creates an agent; Start registers and begins heartbeats.
// lastIssued reads the transaction manager's last issued timestamp, which
// an idle client's T_F(c) follows (ClientTracker.Advance).
func NewClientAgent(cfg ClientAgentConfig, svc *coord.Service, lastIssued func() kv.Timestamp) *ClientAgent {
	return &ClientAgent{
		cfg:        cfg.withDefaults(),
		svc:        svc,
		lastIssued: lastIssued,
		stop:       make(chan struct{}),
	}
}

// sessionID returns the agent's coordination-session ID.
func (a *ClientAgent) sessionID() string { return clientSessionPrefix + a.cfg.ClientID }

// Start initializes T_F(c) from the published global T_F (Alg. 2 "On
// register") and registers the heartbeat session.
func (a *ClientAgent) Start() error {
	var initial kv.Timestamp
	if b, ok := a.svc.Get(KeyGlobalTF); ok {
		initial = decodeTS(b)
	}
	a.tracker = NewClientTracker(initial)
	if err := a.svc.Register(a.sessionID(), a.cfg.SessionTTL, encodeTS(initial)); err != nil {
		return fmt.Errorf("client agent %s: %w", a.cfg.ClientID, err)
	}
	a.wg.Add(1)
	go a.loop()
	return nil
}

// OnCommitted forwards a commit-phase entry to the tracker. Must be called
// in commit-timestamp order (wire it to the TM's ordered commit observer).
func (a *ClientAgent) OnCommitted(ts kv.Timestamp) { a.tracker.OnCommitted(ts) }

// OnFlushed forwards a completed flush to the tracker.
func (a *ClientAgent) OnFlushed(ts kv.Timestamp) { a.tracker.OnFlushed(ts) }

// TF returns the client's current threshold.
func (a *ClientAgent) TF() kv.Timestamp { return a.tracker.TF() }

// Failed reports whether the agent hit a fatal session loss.
func (a *ClientAgent) Failed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fatal
}

func (a *ClientAgent) loop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			if err := a.beat(); err != nil {
				a.mu.Lock()
				a.fatal = true
				a.mu.Unlock()
				if a.cfg.OnFatal != nil {
					a.cfg.OnFatal(err)
				}
				return
			}
			if th := a.cfg.QueueAlertThreshold; th > 0 && a.cfg.OnQueueAlert != nil {
				if n := a.tracker.PendingFlushes(); n > th {
					a.cfg.OnQueueAlert(a.cfg.ClientID, n)
				}
			}
		}
	}
}

// beat advances T_F(c) and sends one heartbeat.
func (a *ClientAgent) beat() error {
	tf := a.tracker.Advance(a.lastIssued)
	return a.svc.Heartbeat(a.sessionID(), encodeTS(tf))
}

// Stop performs the paper's clean shutdown: a final pre-shutdown heartbeat
// followed by unregistration. The caller must have completed (or abandoned)
// all flushes first; the final Advance reflects them.
func (a *ClientAgent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
	a.mu.Lock()
	fatal := a.fatal
	a.mu.Unlock()
	if fatal {
		return // session already gone; recovery is handling us
	}
	_ = a.beat()
	_ = a.svc.Unregister(a.sessionID())
}

// Crash simulates the client process dying: heartbeats simply stop; the
// session is left to expire so the recovery manager detects the failure.
func (a *ClientAgent) Crash() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}
