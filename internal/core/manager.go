package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"txkv/internal/coord"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/netsim"
	"txkv/internal/txlog"
)

// recoveryClientNode is the recovery client's node name on the simulated
// network.
const recoveryClientNode = "recovery-client"

// ManagerConfig configures the recovery manager.
type ManagerConfig struct {
	// PollInterval is how often the manager reads the client thresholds
	// from the coordination service and the server thresholds from the
	// master, recomputes the global thresholds, publishes them, checkpoints
	// its state, and truncates the log.
	PollInterval time.Duration
	// DisableTruncation keeps the full log (for the truncation ablation).
	DisableTruncation bool
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.PollInterval == 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	return c
}

// FlushNotifier receives flush-completion notifications for write-sets the
// recovery manager replayed on behalf of a dead client — the dead client
// cannot report its own flushes any more, so the manager reports them (the
// transaction manager uses this to advance its visibility frontier).
type FlushNotifier interface {
	NotifyFlushed(ts kv.Timestamp)
}

// RecoveryEvent records one completed recovery action, for the evaluation
// harness.
type RecoveryEvent struct {
	Kind              string // "client" or "region"
	ID                string // client ID or region ID
	FailedServer      string // region recoveries only
	WriteSetsReplayed int
	UpdatesReplayed   int
	Duration          time.Duration
}

// Stats aggregates recovery-manager counters.
type Stats struct {
	ClientsRecovered  int
	RegionsRecovered  int
	WriteSetsReplayed int
	UpdatesReplayed   int
	QueueAlerts       int
	TF                kv.Timestamp
	TP                kv.Timestamp
}

// failedServer tracks an in-progress server recovery.
type failedServer struct {
	tp        kv.Timestamp
	remaining int
	fetchOnce sync.Once
	records   []kv.WriteSet
	fetchErr  error
}

// Manager is the recovery manager: a middleware service associated with the
// transaction manager (paper §3). It tracks per-client flushed thresholds
// from the clients' coordination sessions and per-server persisted
// thresholds from the master, which collects them from the region servers'
// heartbeats. It maintains the global T_F and T_P, recovers from client
// failures (Alg. 2) and server failures (Alg. 4) by replaying write-sets
// from the transaction manager's log, and truncates that log below T_P.
type Manager struct {
	cfg    ManagerConfig
	svc    *coord.Service
	master *kvstore.Master
	log    *txlog.Log
	net    *netsim.Network
	// rc is the recovery client C_R used for client-failure replays; it
	// routes through the master like a regular client but reuses original
	// commit timestamps.
	rc *kvstore.Client

	mu       sync.Mutex
	notifier FlushNotifier
	clientTF map[string]kv.Timestamp
	serverTP map[string]kv.Timestamp // the master's server thresholds at the last poll
	failed   map[string]*failedServer
	tf, tp   kv.Timestamp
	events   []RecoveryEvent
	stats    Stats
	stopped  bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	ctx      context.Context // cancelled on Stop: aborts in-flight replays
	cancel   context.CancelFunc
}

var (
	_ kvstore.RecoveryGate                   = (*Manager)(nil)
	_ kvstore.ServerFailureListener          = (*Manager)(nil)
	_ kvstore.ServerRecoveryCompleteListener = (*Manager)(nil)
)

// NewManager creates a recovery manager. rc must be a dedicated routing
// client (the recovery client C_R); net gates its direct region replays.
func NewManager(cfg ManagerConfig, svc *coord.Service, master *kvstore.Master, log *txlog.Log, rc *kvstore.Client, net *netsim.Network) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:      cfg.withDefaults(),
		svc:      svc,
		master:   master,
		log:      log,
		net:      net,
		rc:       rc,
		clientTF: make(map[string]kv.Timestamp),
		serverTP: make(map[string]kv.Timestamp),
		failed:   make(map[string]*failedServer),
		stop:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// SetFlushNotifier attaches the transaction manager's flush notifications.
// Must be called before Start.
func (m *Manager) SetFlushNotifier(n FlushNotifier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.notifier = n
}

// Start restores any checkpointed state from the coordination service
// (paper §3.3: a restarted manager "contacts ZooKeeper to catch up with the
// system's progress"), subscribes to session-end events, and begins
// polling.
func (m *Manager) Start() {
	m.restore()
	m.svc.Watch(m.onSessionEvent)
	m.poll() // publish thresholds at once: registrations start from them
	m.reconcileDeadClients()
	m.wg.Add(1)
	go m.pollLoop()
}

// reconcileDeadClients recovers clients present in the restored checkpoint
// whose sessions expired while no manager was running — their expiry events
// were lost with the previous manager (paper §3.3 catch-up).
func (m *Manager) reconcileDeadClients() {
	live := m.svc.Sessions(clientSessionPrefix)
	m.mu.Lock()
	var dead []struct {
		id string
		tf kv.Timestamp
	}
	for id, tf := range m.clientTF {
		if _, ok := live[clientSessionPrefix+id]; !ok {
			dead = append(dead, struct {
				id string
				tf kv.Timestamp
			}{id, tf})
		}
	}
	m.mu.Unlock()
	for _, d := range dead {
		m.recoverClient(d.id, d.tf)
	}
}

// OnServerRecoveryComplete implements kvstore.ServerRecoveryCompleteListener:
// every region of the failed server is back online, so its frozen threshold
// no longer holds back T_P.
func (m *Manager) OnServerRecoveryComplete(serverID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.failed, serverID)
	delete(m.serverTP, serverID)
}

// Stop halts the manager (crash or shutdown; state is already
// checkpointed). A stopped manager ignores further session events and gate
// calls; a successor reconciles anything that happens in between.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.cancel() // abort in-flight replay flushes
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *Manager) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// checkpointState is the JSON-serialized manager state stored in the
// coordination service for fail-over. Server thresholds are not in it: the
// master keeps them, a failed server's frozen until its regions are back.
type checkpointState struct {
	ClientTF map[string]kv.Timestamp `json:"client_tf"`
	TF       kv.Timestamp            `json:"tf"`
	TP       kv.Timestamp            `json:"tp"`
}

func (m *Manager) restore() {
	b, ok := m.svc.Get(KeyManagerState)
	if !ok {
		return
	}
	var st checkpointState
	if err := json.Unmarshal(b, &st); err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, tf := range st.ClientTF {
		m.clientTF[id] = tf
	}
	m.tf, m.tp = st.TF, st.TP
}

func (m *Manager) checkpoint() {
	m.mu.Lock()
	st := checkpointState{
		ClientTF: make(map[string]kv.Timestamp, len(m.clientTF)),
		TF:       m.tf,
		TP:       m.tp,
	}
	for id, tf := range m.clientTF {
		st.ClientTF[id] = tf
	}
	m.mu.Unlock()
	b, err := json.Marshal(st)
	if err != nil {
		return
	}
	m.svc.Put(KeyManagerState, b)
}

func (m *Manager) pollLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.poll()
		}
	}
}

// poll reads every live client session's piggybacked threshold and the
// master's server thresholds, recomputes and publishes the global
// thresholds, checkpoints, and truncates the log.
func (m *Manager) poll() {
	clients := m.svc.Sessions(clientSessionPrefix)
	servers := m.master.ServerThresholds()

	m.mu.Lock()
	for id, payload := range clients {
		name := strings.TrimPrefix(id, clientSessionPrefix)
		m.clientTF[name] = decodeTS(payload)
	}
	// The master holds a failed server's threshold frozen until its
	// regions are all back, so the snapshot replaces the previous one.
	m.serverTP = servers
	m.recomputeLocked()
	tf, tp := m.tf, m.tp
	m.mu.Unlock()

	m.master.PublishThresholds(tf, tp)
	m.svc.Put(KeyGlobalTF, encodeTS(tf))
	m.checkpoint()
	if !m.cfg.DisableTruncation {
		m.log.Truncate(tp)
	}
}

// recomputeLocked recomputes T_F = min_c T_F(c) and T_P = min_s T_P(s),
// where failed-but-unrecovered servers participate with their frozen
// thresholds (their write-sets may still need replay, so the log must not
// be truncated past them; the master's snapshot keeps them until their
// regions are back). Thresholds never regress.
func (m *Manager) recomputeLocked() {
	if len(m.clientTF) > 0 {
		tf := kv.MaxTimestamp
		for _, v := range m.clientTF {
			if v < tf {
				tf = v
			}
		}
		if tf > m.tf {
			m.tf = tf
		}
	}
	if len(m.serverTP) > 0 {
		tp := kv.MaxTimestamp
		for _, v := range m.serverTP {
			if v < tp {
				tp = v
			}
		}
		// T_P <= T_F by construction (Alg. 3); cap defensively anyway.
		if tp > m.tf {
			tp = m.tf
		}
		if tp > m.tp {
			m.tp = tp
		}
	}
}

// TF returns the current global flushed threshold.
func (m *Manager) TF() kv.Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tf
}

// TP returns the current global persisted threshold.
func (m *Manager) TP() kv.Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tp
}

// Events returns a copy of the recovery-event history.
func (m *Manager) Events() []RecoveryEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RecoveryEvent(nil), m.events...)
}

// StatsSnapshot returns current counters.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.TF, s.TP = m.tf, m.tp
	return s
}

// NoteQueueAlert records a flush-queue alert from a client monitor (paper
// §3.2: an operator signal that a region may be stuck).
func (m *Manager) NoteQueueAlert(string, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.QueueAlerts++
}

// onSessionEvent dispatches client-session terminations.
func (m *Manager) onSessionEvent(ev coord.SessionEvent) {
	if m.isStopped() {
		return // a crashed manager must not act; its successor reconciles
	}
	name, ok := strings.CutPrefix(ev.ID, clientSessionPrefix)
	if !ok {
		return
	}
	if !ev.Expired {
		// Clean unregister: drop the client from the T_F computation
		// (Alg. 2 "On unregister").
		m.mu.Lock()
		delete(m.clientTF, name)
		m.mu.Unlock()
		return
	}
	// Run the replay off the coordination service's dispatch goroutine so
	// other events keep flowing; Stop waits for it.
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.wg.Add(1)
	m.mu.Unlock()
	tf := decodeTS(ev.Payload)
	go func() {
		defer m.wg.Done()
		m.recoverClient(name, tf)
	}()
}

// recoverClient implements Algorithm 2 "On failure(c)": replay from the log
// every write-set committed by c after its last reported T_F(c), via the
// recovery client, reusing original commit timestamps. The client stays in
// the T_F computation (frozen) until its replay completes, so the global
// invariant is never violated mid-recovery.
func (m *Manager) recoverClient(clientID string, lastTF kv.Timestamp) {
	start := time.Now()
	m.mu.Lock()
	if tf, ok := m.clientTF[clientID]; ok && tf > lastTF {
		lastTF = tf
	}
	// Write-sets at or below the truncation watermark are durably
	// persisted in the data store (that is what permits truncation), so a
	// stale threshold — e.g. a client that died before reporting any T_F
	// on a cluster reopened past an earlier checkpoint — can be raised to
	// the watermark without losing anything that still needs replay.
	if tb := m.log.TruncatedBelow(); lastTF < tb {
		lastTF = tb
	}
	m.clientTF[clientID] = lastTF // freeze
	m.mu.Unlock()

	records, err := m.log.ByClientAfter(clientID, lastTF)
	if err != nil {
		// The range was truncated between the clamp above and the fetch
		// (its write-sets are persisted); nothing needs replay.
		records = nil
	}
	m.mu.Lock()
	notifier := m.notifier
	m.mu.Unlock()
	updates := 0
	ctx := m.ctx
	for _, ws := range records {
		// C_R flushes with the ORIGINAL commit timestamp (idempotent).
		if err := m.rc.Flush(ctx, ws, 0, false); err != nil {
			break
		}
		updates += len(ws.Updates)
		if notifier != nil {
			// The dead client can no longer report this flush itself.
			notifier.NotifyFlushed(ws.CommitTS)
		}
	}

	m.mu.Lock()
	delete(m.clientTF, clientID)
	m.stats.ClientsRecovered++
	m.stats.WriteSetsReplayed += len(records)
	m.stats.UpdatesReplayed += updates
	m.events = append(m.events, RecoveryEvent{
		Kind:              "client",
		ID:                clientID,
		WriteSetsReplayed: len(records),
		UpdatesReplayed:   updates,
		Duration:          time.Since(start),
	})
	m.mu.Unlock()
}

// OnServerFailure implements the master's failure hook: record the failed
// server's frozen T_P(s) and prime the per-region recovery bookkeeping.
func (m *Manager) OnServerFailure(serverID string, tp kv.Timestamp, regions []kvstore.RegionInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.failed[serverID]
	if !ok {
		f = &failedServer{tp: tp}
		m.failed[serverID] = f
	}
	f.remaining = len(regions)
	delete(m.serverTP, serverID)
	if f.remaining == 0 {
		delete(m.failed, serverID)
	}
}

// RecoverRegion implements the region gate (Algorithm 4 "On replay" /
// "On failure(s)" body): fetch from the log every write-set committed after
// T_P(s) of the failed server (once per failure), select the updates
// falling within the region, and replay them — with T_P(s) piggybacked — to
// the region's new host. The region goes online when this returns.
func (m *Manager) RecoverRegion(r kvstore.RegionInfo, failedID string, host kvstore.RegionHost) error {
	start := time.Now()
	m.mu.Lock()
	f, ok := m.failed[failedID]
	if !ok {
		// A failure hook we never saw (it fired while no manager ran): the
		// master reported the frozen threshold at the last poll, and the
		// remaining count is unknown.
		f = &failedServer{tp: m.serverTP[failedID], remaining: -1}
		m.failed[failedID] = f
	}
	tpS := f.tp
	m.mu.Unlock()
	// As in recoverClient: everything at or below the truncation watermark
	// is durably persisted, so a stale T_P(s) (a server that died before
	// reporting any threshold on a reopened cluster, or one unknown to this
	// manager) clamps up to it.
	if tb := m.log.TruncatedBelow(); tpS < tb {
		tpS = tb
	}

	f.fetchOnce.Do(func() {
		f.records, f.fetchErr = m.log.After(tpS)
	})
	if f.fetchErr != nil {
		return fmt.Errorf("core: fetch log after %d: %w", tpS, f.fetchErr)
	}

	// Replay, in commit order, the slice of each write-set that falls in
	// this region (Alg. 4 lines 17-23).
	replayedWS, replayedUpd := 0, 0
	ctx := m.ctx
	for _, ws := range f.records {
		var slice []kv.Update
		for _, u := range ws.Updates {
			if u.Table == r.Table && r.Range.Contains(u.Row) {
				slice = append(slice, u)
			}
		}
		if len(slice) == 0 {
			continue
		}
		sub := kv.WriteSet{
			TxnID:    ws.TxnID,
			ClientID: ws.ClientID,
			CommitTS: ws.CommitTS, // original commit timestamp
			Updates:  slice,
		}
		if err := m.replayToHost(ctx, sub, tpS, host); err != nil {
			return fmt.Errorf("core: replay ws %d to %s: %w", ws.CommitTS, host.ID(), err)
		}
		replayedWS++
		replayedUpd += len(slice)
	}

	m.mu.Lock()
	if f.remaining > 0 {
		f.remaining--
		if f.remaining == 0 {
			delete(m.failed, failedID)
		}
	}
	m.stats.RegionsRecovered++
	m.stats.WriteSetsReplayed += replayedWS
	m.stats.UpdatesReplayed += replayedUpd
	m.events = append(m.events, RecoveryEvent{
		Kind:              "region",
		ID:                r.ID,
		FailedServer:      failedID,
		WriteSetsReplayed: replayedWS,
		UpdatesReplayed:   replayedUpd,
		Duration:          time.Since(start),
	})
	m.mu.Unlock()
	return nil
}

// replayToHost sends one replayed write-set slice directly to the
// recovering region's host, through the simulated network, with the failed
// server's threshold piggybacked.
func (m *Manager) replayToHost(ctx context.Context, ws kv.WriteSet, piggy kv.Timestamp, host kvstore.RegionHost) error {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		lastErr = m.net.Call(ctx, recoveryClientNode, host.ID(), func() error {
			return host.ApplyWriteSet(ws, piggy, true)
		})
		if lastErr == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond << uint(min(attempt, 5))):
		}
	}
	return lastErr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
