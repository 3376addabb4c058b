// Package replica implements the primary/backup shipping engine behind
// region replication: per-region fan-out of the primary's WAL stream to its
// follower set, majority-quorum ack accounting, retained-log pruning at
// flush checkpoints, follower re-anchoring, and epoch fencing. One Shipper
// serves one region server (all the regions it primaries); the master
// drives membership through kvstore's RegionHost surface, which forwards
// here via the kvstore.Replicator interface.
//
// Invariants:
//
//   - Entries of one region form a single monotone sequence; the retained
//     log always holds exactly (checkpoint, lastSeq], contiguous.
//   - A sender never transmits an entry its follower is not contiguous
//     with: it first delivers the current checkpoint (re-anchoring the
//     follower on the primary's store files), then ships from the
//     follower's acknowledged position.
//   - A write is acknowledged once a majority of the replica set (primary
//     included) holds it; the majority is over the CURRENT set, so losing
//     a follower degrades the quorum rather than wedging writes — the
//     master repairs the set, and the transaction log recovery middleware
//     remains the durability backstop underneath.
//   - One ErrStaleEpoch from any follower fences the region permanently
//     (until a new epoch is installed): every waiting and future write
//     fails with ErrStaleEpoch, so a deposed primary can never ack.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/obs"
)

// Config configures a Shipper.
type Config struct {
	// ServerID is the owning region server's ID (labels and link identity).
	ServerID string
	// Dial resolves follower targets into live links.
	Dial kvstore.LinkDialer
	// SafeTS supplies the safe-snapshot horizon shipped with frontier
	// heartbeats (the cluster wires the transaction manager's safe
	// snapshot). Nil disables frontier advancement on idle regions.
	SafeTS func() kv.Timestamp
	// QuorumTimeout bounds the wait for a majority ack; an expiring wait
	// fails the write with a retryable error (the master repairs the
	// follower set meanwhile). Default 5s.
	QuorumTimeout time.Duration
	// HeartbeatInterval is the cadence of frontier heartbeats to caught-up
	// followers. Default 50ms.
	HeartbeatInterval time.Duration
	// RetryBackoff is the pause after a failed send before the sender
	// retries. Default 20ms.
	RetryBackoff time.Duration
	// MaxBatchEntries caps entries per AppendEntries call. Default 256.
	MaxBatchEntries int
	// Registry receives the shipping counters (replica.shipped_batches,
	// replica.quorum_timeouts, ...). The shippers of one cluster share it,
	// so each counter is one total. Nil records nothing.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.QuorumTimeout == 0 {
		c.QuorumTimeout = 5 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.MaxBatchEntries == 0 {
		c.MaxBatchEntries = 256
	}
	return c
}

// Stats is a point-in-time snapshot of the shipper's registry counters and
// its own lag gauges. Shippers that share a registry read the same counters.
type Stats struct {
	ShippedBatches  int64
	ShippedEntries  int64
	ShippedBytes    int64
	Heartbeats      int64
	Checkpoints     int64
	SendErrors      int64
	QuorumTimeouts  int64
	RegionsFenced   int64
	LagEntries      int64 // worst follower lag, in entries, across regions
	LagBytes        int64 // retained-log bytes not yet held by every follower
	RetainedEntries int64 // retained-log entries across regions
}

// Shipper is one region server's replication engine. See the package
// comment for the invariants it maintains.
type Shipper struct {
	cfg Config

	mu      sync.Mutex
	regions map[string]*regionRep
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup

	shippedBatches, shippedEntries, shippedBytes *obs.Counter
	heartbeats, checkpoints, sendErrors          *obs.Counter
	quorumTimeouts, regionsFenced                *obs.Counter
}

// NewShipper creates a shipper; Close releases its senders.
func NewShipper(cfg Config) *Shipper {
	reg := cfg.Registry
	return &Shipper{
		cfg:            cfg.withDefaults(),
		regions:        make(map[string]*regionRep),
		stop:           make(chan struct{}),
		shippedBatches: reg.Counter("replica.shipped_batches"),
		shippedEntries: reg.Counter("replica.shipped_entries"),
		shippedBytes:   reg.Counter("replica.shipped_bytes"),
		heartbeats:     reg.Counter("replica.heartbeats"),
		checkpoints:    reg.Counter("replica.checkpoints_shipped"),
		sendErrors:     reg.Counter("replica.send_errors"),
		quorumTimeouts: reg.Counter("replica.quorum_timeouts"),
		regionsFenced:  reg.Counter("replica.regions_fenced"),
	}
}

type waiter struct {
	seq  uint64
	ch   chan struct{}
	err  error // set before ch closes
	done bool
}

type regionRep struct {
	id string

	mu         sync.Mutex
	epoch      uint64
	lastSeq    uint64
	checkpoint uint64
	base       uint64 // seq of the entry preceding log[0]; == checkpoint after prune
	log        []kvstore.ReplEntry
	logBytes   int64
	senders    map[string]*sender
	waiters    []*waiter
	fenced     bool
	dropped    bool
}

type sender struct {
	target   kvstore.ReplicaTarget
	link     kvstore.FollowerLink
	acked    uint64 // follower's last contiguously applied seq
	anchored bool   // current checkpoint delivered
	ckptSent uint64
	removed  bool
	wake     chan struct{}
	lastSend time.Time
}

func (sd *sender) signal() {
	select {
	case sd.wake <- struct{}{}:
	default:
	}
}

func entryBytes(e kvstore.ReplEntry) int64 {
	var n int64
	for _, x := range e.KVs {
		n += int64(len(x.Row) + len(x.Column) + len(x.Value) + 16)
	}
	return n
}

// region returns (creating if needed) a region's shipping state.
func (sh *Shipper) region(regionID string) *regionRep {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.regions[regionID]
	if r == nil {
		r = &regionRep{id: regionID, senders: make(map[string]*sender)}
		sh.regions[regionID] = r
	}
	return r
}

// followerAcksNeeded is the number of FOLLOWER acks required for a majority
// of the current replica set (primary included): total = n followers + 1,
// majority = total/2 + 1, of which the primary itself supplies one.
func followerAcksNeeded(nFollowers int) int {
	return (nFollowers + 1) / 2
}

// Replicate implements kvstore.Replicator.
func (sh *Shipper) Replicate(regionID string, kvs []kv.KeyValue) error {
	r := sh.region(regionID)
	r.mu.Lock()
	if r.fenced {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s fenced at epoch %d", kvstore.ErrStaleEpoch, regionID, r.epoch)
	}
	r.lastSeq++
	e := kvstore.ReplEntry{Seq: r.lastSeq, KVs: kvs}
	r.log = append(r.log, e)
	r.logBytes += entryBytes(e)
	need := followerAcksNeeded(len(r.senders))
	var w *waiter
	if need > 0 {
		w = &waiter{seq: e.Seq, ch: make(chan struct{})}
		r.waiters = append(r.waiters, w)
	}
	for _, sd := range r.senders {
		sd.signal()
	}
	r.mu.Unlock()
	if w == nil {
		return nil // no followers yet: the primary alone is the majority
	}
	t := time.NewTimer(sh.cfg.QuorumTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return w.err
	case <-t.C:
		r.mu.Lock()
		done, err := w.done, w.err
		if !done {
			for i, x := range r.waiters {
				if x == w {
					r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
					break
				}
			}
		}
		r.mu.Unlock()
		if done {
			return err // ack raced the timer
		}
		sh.quorumTimeouts.Add(1)
		return fmt.Errorf("%w: replication quorum timeout for %s seq %d",
			kvstore.ErrRegionNotServing, regionID, e.Seq)
	case <-sh.stop:
		return kvstore.ErrServerStopped
	}
}

// evaluateWaitersLocked completes every waiter whose seq a follower
// majority now holds. Caller holds r.mu.
func (r *regionRep) evaluateWaitersLocked() {
	need := followerAcksNeeded(len(r.senders))
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		acks := 0
		for _, sd := range r.senders {
			if sd.acked >= w.seq {
				acks++
			}
		}
		if acks >= need {
			w.done = true
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	r.waiters = kept
}

// fenceLocked marks the region fenced and fails every waiter. Caller holds
// r.mu.
func (sh *Shipper) fenceLocked(r *regionRep) {
	if r.fenced {
		return
	}
	r.fenced = true
	sh.regionsFenced.Add(1)
	for _, w := range r.waiters {
		w.err = fmt.Errorf("%w: %s fenced at epoch %d", kvstore.ErrStaleEpoch, r.id, r.epoch)
		w.done = true
		close(w.ch)
	}
	r.waiters = nil
}

// failWaitersLocked fails every waiter with err. Caller holds r.mu.
func failWaitersLocked(r *regionRep, err error) {
	for _, w := range r.waiters {
		w.err = err
		w.done = true
		close(w.ch)
	}
	r.waiters = nil
}

// SetFollowers implements kvstore.Replicator.
func (sh *Shipper) SetFollowers(regionID string, epoch uint64, followers []kvstore.ReplicaTarget) {
	r := sh.region(regionID)
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.epoch {
		return // stale membership from a deposed master view
	}
	if epoch > r.epoch {
		r.epoch = epoch
		r.fenced = false
	}
	want := make(map[string]kvstore.ReplicaTarget, len(followers))
	for _, t := range followers {
		want[t.ServerID] = t
	}
	for id, sd := range r.senders {
		if _, ok := want[id]; !ok {
			sd.removed = true
			sd.signal()
			delete(r.senders, id)
		}
	}
	for id, t := range want {
		if _, ok := r.senders[id]; ok {
			continue
		}
		sd := &sender{target: t, wake: make(chan struct{}, 1)}
		r.senders[id] = sd
		sh.wg.Add(1)
		go sh.senderLoop(r, sd)
	}
	// Membership change moves the quorum bar; waiting writes may already
	// be satisfied under the new (possibly smaller) set.
	r.evaluateWaitersLocked()
}

// AdoptRegion implements kvstore.Replicator: seed a promoted follower's
// stream state. Senders are installed by the SetFollowers that follows.
func (sh *Shipper) AdoptRegion(regionID string, epoch, lastSeq, checkpoint uint64, tail []kvstore.ReplEntry) {
	r := sh.region(regionID)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sd := range r.senders {
		sd.removed = true
		sd.signal()
	}
	r.senders = make(map[string]*sender)
	failWaitersLocked(r, fmt.Errorf("%w: %s adopted at epoch %d", kvstore.ErrRegionNotServing, regionID, epoch))
	r.epoch = epoch
	r.lastSeq = lastSeq
	r.checkpoint = checkpoint
	r.base = checkpoint
	r.log = append([]kvstore.ReplEntry(nil), tail...)
	r.logBytes = 0
	for _, e := range r.log {
		r.logBytes += entryBytes(e)
	}
	r.fenced = false
	r.dropped = false
}

// LastSeq implements kvstore.Replicator.
func (sh *Shipper) LastSeq(regionID string) uint64 {
	sh.mu.Lock()
	r := sh.regions[regionID]
	sh.mu.Unlock()
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq
}

// Checkpoint implements kvstore.Replicator: prune the retained log through
// seq and schedule follower re-anchors.
func (sh *Shipper) Checkpoint(regionID string, seq uint64) {
	sh.mu.Lock()
	r := sh.regions[regionID]
	sh.mu.Unlock()
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq <= r.checkpoint {
		return
	}
	drop := int(seq - r.base)
	if drop > len(r.log) {
		drop = len(r.log)
	}
	for _, e := range r.log[:drop] {
		r.logBytes -= entryBytes(e)
	}
	r.log = append([]kvstore.ReplEntry(nil), r.log[drop:]...)
	r.base += uint64(drop)
	r.checkpoint = seq
	sh.checkpoints.Add(1)
	for _, sd := range r.senders {
		// Every follower must learn the new anchor: behind ones because
		// their pending entries were just pruned, caught-up ones so they
		// prune their own retained tails.
		sd.signal()
	}
}

// DropRegion implements kvstore.Replicator.
func (sh *Shipper) DropRegion(regionID string) {
	sh.mu.Lock()
	r := sh.regions[regionID]
	delete(sh.regions, regionID)
	sh.mu.Unlock()
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped = true
	for _, sd := range r.senders {
		sd.removed = true
		sd.signal()
	}
	r.senders = make(map[string]*sender)
	failWaitersLocked(r, fmt.Errorf("%w: %s dropped", kvstore.ErrRegionNotServing, regionID))
}

// Close stops every sender.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	close(sh.stop)
	sh.wg.Wait()
}

// Stats snapshots counters and recomputes the lag gauges.
func (sh *Shipper) Stats() Stats {
	st := Stats{
		ShippedBatches: sh.shippedBatches.Load(),
		ShippedEntries: sh.shippedEntries.Load(),
		ShippedBytes:   sh.shippedBytes.Load(),
		Heartbeats:     sh.heartbeats.Load(),
		Checkpoints:    sh.checkpoints.Load(),
		SendErrors:     sh.sendErrors.Load(),
		QuorumTimeouts: sh.quorumTimeouts.Load(),
		RegionsFenced:  sh.regionsFenced.Load(),
	}
	sh.mu.Lock()
	regions := make([]*regionRep, 0, len(sh.regions))
	for _, r := range sh.regions {
		regions = append(regions, r)
	}
	sh.mu.Unlock()
	for _, r := range regions {
		r.mu.Lock()
		st.RetainedEntries += int64(len(r.log))
		minAcked := r.lastSeq
		for _, sd := range r.senders {
			if sd.acked < minAcked {
				minAcked = sd.acked
			}
			if lag := int64(r.lastSeq - sd.acked); lag > st.LagEntries {
				st.LagEntries = lag
			}
		}
		if len(r.senders) > 0 && minAcked < r.lastSeq {
			from := 0
			if minAcked > r.base {
				from = int(minAcked - r.base)
			}
			if from < len(r.log) {
				for _, e := range r.log[from:] {
					st.LagBytes += entryBytes(e)
				}
			}
		}
		r.mu.Unlock()
	}
	return st
}

// RegionLag returns one region's worst follower lag in entries (the
// /debug/regions row value). Unknown regions report 0.
func (sh *Shipper) RegionLag(regionID string) int64 {
	sh.mu.Lock()
	r := sh.regions[regionID]
	sh.mu.Unlock()
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var worst int64
	for _, sd := range r.senders {
		if lag := int64(r.lastSeq - sd.acked); lag > worst {
			worst = lag
		}
	}
	return worst
}

// senderLoop drives one (region, follower) stream: anchor, ship, heartbeat,
// retry. All calls for the pair happen from this goroutine, so the follower
// sees a strictly ordered stream.
func (sh *Shipper) senderLoop(r *regionRep, sd *sender) {
	defer sh.wg.Done()
	defer func() {
		if sd.link != nil {
			sd.link.Close()
		}
	}()
	hb := time.NewTicker(sh.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		progressed, alive := sh.senderPass(r, sd)
		if !alive {
			return
		}
		if progressed {
			continue // more work may be queued behind what we just sent
		}
		select {
		case <-sh.stop:
			return
		case <-sd.wake:
		case <-hb.C:
		}
	}
}

// senderPass performs at most one link call. It returns progressed=true when
// it did work and should immediately be called again, and alive=false when
// the sender was removed or the shipper stopped.
func (sh *Shipper) senderPass(r *regionRep, sd *sender) (progressed, alive bool) {
	select {
	case <-sh.stop:
		return false, false
	default:
	}
	r.mu.Lock()
	if sd.removed || r.dropped {
		r.mu.Unlock()
		return false, false
	}
	epoch := r.epoch
	ckpt := r.checkpoint
	lastSeq := r.lastSeq
	needAnchor := !sd.anchored || sd.ckptSent < ckpt
	var batch []kvstore.ReplEntry
	if !needAnchor && sd.acked < lastSeq {
		from := 0
		if sd.acked > r.base {
			from = int(sd.acked - r.base)
		}
		end := from + sh.cfg.MaxBatchEntries
		if end > len(r.log) {
			end = len(r.log)
		}
		if from < end {
			batch = append([]kvstore.ReplEntry(nil), r.log[from:end]...)
		}
	}
	heartbeat := !needAnchor && len(batch) == 0 &&
		time.Since(sd.lastSend) >= sh.cfg.HeartbeatInterval
	r.mu.Unlock()

	if !needAnchor && len(batch) == 0 && !heartbeat {
		return false, true
	}
	if sd.link == nil {
		link, err := sh.cfg.Dial(sd.target)
		if err != nil {
			sh.sendErrors.Add(1)
			sh.backoff()
			return false, true
		}
		sd.link = link
	}

	if needAnchor {
		err := sd.link.Checkpoint(r.id, epoch, ckpt)
		sd.lastSend = time.Now()
		if err != nil {
			sh.noteSendError(r, sd, err)
			return false, true
		}
		r.mu.Lock()
		sd.anchored = true
		sd.ckptSent = ckpt
		if sd.acked < ckpt {
			sd.acked = ckpt
		}
		r.evaluateWaitersLocked()
		r.mu.Unlock()
		return true, true
	}

	var safeTS kv.Timestamp
	if sh.cfg.SafeTS != nil {
		safeTS = sh.cfg.SafeTS()
	}
	got, err := sd.link.AppendEntries(r.id, epoch, batch, lastSeq, safeTS)
	sd.lastSend = time.Now()
	if err != nil {
		if errors.Is(err, kvstore.ErrReplicaGap) {
			// Rewind to the follower's reported position; if it fell
			// behind the prune point it must re-anchor first.
			r.mu.Lock()
			sd.acked = got
			if got < r.checkpoint {
				sd.anchored = false
			}
			r.mu.Unlock()
			return true, true
		}
		sh.noteSendError(r, sd, err)
		return false, true
	}
	if len(batch) > 0 {
		sh.shippedBatches.Add(1)
		sh.shippedEntries.Add(int64(len(batch)))
		for _, e := range batch {
			sh.shippedBytes.Add(entryBytes(e))
		}
	} else {
		sh.heartbeats.Add(1)
	}
	r.mu.Lock()
	if got > sd.acked {
		sd.acked = got
		r.evaluateWaitersLocked()
	}
	r.mu.Unlock()
	return len(batch) > 0, true
}

// noteSendError classifies a link failure: epoch fencing kills the region's
// stream; anything else backs off and retries through a fresh dial.
func (sh *Shipper) noteSendError(r *regionRep, sd *sender, err error) {
	if errors.Is(err, kvstore.ErrStaleEpoch) {
		r.mu.Lock()
		sh.fenceLocked(r)
		r.mu.Unlock()
		sh.backoff() // stay alive: a SetFollowers with a new epoch revives
		return
	}
	sh.sendErrors.Add(1)
	if sd.link != nil {
		sd.link.Close()
		sd.link = nil
	}
	sh.backoff()
}

func (sh *Shipper) backoff() {
	t := time.NewTimer(sh.cfg.RetryBackoff)
	defer t.Stop()
	select {
	case <-sh.stop:
	case <-t.C:
	}
}
