package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"txkv/internal/coord"
	"txkv/internal/kv"
)

func newCoord(t *testing.T) *coord.Service {
	t.Helper()
	svc := coord.New(coord.Config{DefaultTTL: 200 * time.Millisecond, CheckInterval: 10 * time.Millisecond})
	t.Cleanup(svc.Stop)
	return svc
}

func TestClientAgentHeartbeatCarriesTF(t *testing.T) {
	svc := newCoord(t)
	agent := NewClientAgent(ClientAgentConfig{
		ClientID:          "c1",
		HeartbeatInterval: 15 * time.Millisecond,
	}, svc, noIssue)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	agent.OnCommitted(5)
	agent.OnFlushed(5)
	deadline := time.Now().Add(3 * time.Second)
	for {
		payload, err := svc.Payload("client/c1")
		if err == nil && decodeTS(payload) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never carried TF=5 (payload err=%v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if agent.TF() != 5 {
		t.Fatalf("TF() = %d", agent.TF())
	}
}

func TestClientAgentInitializesFromGlobalTF(t *testing.T) {
	svc := newCoord(t)
	svc.Put(KeyGlobalTF, encodeTS(77))
	agent := NewClientAgent(ClientAgentConfig{ClientID: "c2", HeartbeatInterval: time.Hour}, svc, noIssue)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Crash()
	if agent.TF() != 77 {
		t.Fatalf("initial TF = %d, want 77 (Alg. 2 register)", agent.TF())
	}
	payload, err := svc.Payload("client/c2")
	if err != nil || decodeTS(payload) != 77 {
		t.Fatalf("registration payload = %v, %v", payload, err)
	}
}

func TestClientAgentDuplicateRegistration(t *testing.T) {
	svc := newCoord(t)
	a1 := NewClientAgent(ClientAgentConfig{ClientID: "dup", HeartbeatInterval: time.Hour}, svc, noIssue)
	if err := a1.Start(); err != nil {
		t.Fatal(err)
	}
	defer a1.Crash()
	a2 := NewClientAgent(ClientAgentConfig{ClientID: "dup", HeartbeatInterval: time.Hour}, svc, noIssue)
	if err := a2.Start(); err == nil {
		t.Fatal("duplicate session accepted")
	}
}

func TestClientAgentQueueAlert(t *testing.T) {
	svc := newCoord(t)
	var alerts atomic.Int32
	agent := NewClientAgent(ClientAgentConfig{
		ClientID:            "c3",
		HeartbeatInterval:   10 * time.Millisecond,
		QueueAlertThreshold: 2,
		OnQueueAlert:        func(string, int) { alerts.Add(1) },
	}, svc, noIssue)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Crash()
	// 5 committed, none flushed: |FQ| = 5 > 2.
	for ts := kv.Timestamp(1); ts <= 5; ts++ {
		agent.OnCommitted(ts)
	}
	deadline := time.Now().Add(3 * time.Second)
	for alerts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if alerts.Load() == 0 {
		t.Fatal("queue alert never fired")
	}
}

func TestAgentsCleanShutdownUnregisters(t *testing.T) {
	svc := newCoord(t)
	var ends atomic.Int32
	var expiries atomic.Int32
	svc.Watch(func(ev coord.SessionEvent) {
		ends.Add(1)
		if ev.Expired {
			expiries.Add(1)
		}
	})
	// Region servers hold no session (their T_P(s) rides the master
	// heartbeat), so two client agents stand in for the pair.
	var agents []*ClientAgent
	for _, id := range []string{"cx", "cy"} {
		a := NewClientAgent(ClientAgentConfig{ClientID: id, HeartbeatInterval: 20 * time.Millisecond}, svc, noIssue)
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents {
		a.Stop()
	}

	deadline := time.Now().Add(2 * time.Second)
	for ends.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ends.Load() < 2 {
		t.Fatalf("expected 2 clean session ends, got %d", ends.Load())
	}
	if expiries.Load() != 0 {
		t.Fatalf("clean shutdown produced %d expiries", expiries.Load())
	}
}

func TestPayloadCodec(t *testing.T) {
	for _, ts := range []kv.Timestamp{0, 1, 42, kv.MaxTimestamp} {
		if got := decodeTS(encodeTS(ts)); got != ts {
			t.Fatalf("round trip %d -> %d", ts, got)
		}
	}
	if decodeTS(nil) != 0 || decodeTS([]byte{1, 2}) != 0 {
		t.Fatal("short payloads must decode to 0")
	}
}

func TestManyClientAgents(t *testing.T) {
	svc := newCoord(t)
	const n = 20
	agents := make([]*ClientAgent, n)
	for i := range agents {
		agents[i] = NewClientAgent(ClientAgentConfig{
			ClientID:          fmt.Sprintf("many-%d", i),
			HeartbeatInterval: 10 * time.Millisecond,
		}, svc, noIssue)
		if err := agents[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := len(svc.SessionIDs("client/many-")); got != n {
		t.Fatalf("live sessions = %d, want %d", got, n)
	}
	for _, a := range agents {
		a.Stop()
	}
	time.Sleep(50 * time.Millisecond)
	if got := len(svc.SessionIDs("client/many-")); got != 0 {
		t.Fatalf("sessions after stop = %d", got)
	}
}
