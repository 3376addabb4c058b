package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"txkv/internal/kv"
	"txkv/internal/netsim"
	"txkv/internal/obs"
)

// ClientConfig configures the routing client.
type ClientConfig struct {
	// ID is the client's node name on the simulated network.
	ID string
	// ReadRetries bounds retries of reads hitting offline regions.
	ReadRetries int
	// RetryBackoff is the initial backoff between retries; it doubles up
	// to 32x.
	RetryBackoff time.Duration
	// Registry receives the client's routing instruments (client.*). The
	// clients of one cluster share it, so each counter is one total that
	// stays monotonic while clients come and go. Nil records nothing.
	Registry *obs.Registry
	// FollowerReads routes scan batches to follower replicas when the
	// layout lists one for the region, trading bounded staleness (the
	// follower serves only snapshots at or below its replicated frontier)
	// for read capacity off the primary. A follower that is behind the
	// scan's snapshot — or unreachable — falls back to the primary within
	// the same fill, so correctness never depends on replication progress.
	FollowerReads bool
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.ReadRetries == 0 {
		c.ReadRetries = 100
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	return c
}

// MasterNode is the master's node name on the simulated network.
const MasterNode = "master"

type location struct {
	info      RegionInfo
	ep        RegionEndpoint
	followers []RegionEndpoint
}

// tableLayout is a client-side snapshot of one table's region map: the
// located regions sorted by start key. Lookups binary-search the ranges, so
// a scan crossing region boundaries resolves every transition locally; only
// a genuine gap (region moved, recovering, or never fetched) falls through
// to the master.
type tableLayout struct {
	locs []location // sorted by info.Range.Start
}

// find returns the cached location containing row.
func (l *tableLayout) find(row kv.Key) (location, bool) {
	i := sort.Search(len(l.locs), func(i int) bool {
		end := l.locs[i].info.Range.End
		return end == "" || row < end
	})
	if i < len(l.locs) && l.locs[i].info.Range.Contains(row) {
		return l.locs[i], true
	}
	return location{}, false
}

// drop removes one region from the layout, keeping the rest of the map —
// the range-aware half of invalidation: a single moved region does not cost
// the whole table's cached layout.
func (l *tableLayout) drop(regionID string) {
	for i, loc := range l.locs {
		if loc.info.ID == regionID {
			l.locs = append(l.locs[:i], l.locs[i+1:]...)
			return
		}
	}
}

// Client is the HBase-like routing client: it caches each table's region
// layout (a range map refreshed whole on a miss, invalidated per region on
// ErrRegionNotServing-style failures), routes gets/scans/write-set flushes
// to region servers through its Transport, and retries after re-locating
// when regions move. The transactional layer (txkv) drives it; the paper's
// client-side tracking (Algorithm 1) observes it from internal/core via the
// transactional client's post-flush notifications. Whether the calls cross
// a simulated network (loopback transport) or real sockets (internal/rpc's
// TCP transport) is invisible here — the retry and invalidation discipline
// is identical.
type Client struct {
	cfg ClientConfig
	tr  Transport

	mu    sync.Mutex
	cache map[string]*tableLayout // table -> cached region map

	m clientMetrics
}

// NewClient creates a routing client over the in-process loopback
// transport — the embedded-cluster path every test and single-process
// deployment uses.
func NewClient(cfg ClientConfig, net *netsim.Network, master *Master) *Client {
	return NewClientTransport(cfg, NewLoopbackTransport(net, master, cfg.ID))
}

// NewClientTransport creates a routing client over an explicit transport.
func NewClientTransport(cfg ClientConfig, tr Transport) *Client {
	return &Client{
		cfg:   cfg.withDefaults(),
		tr:    tr,
		cache: make(map[string]*tableLayout),
		m:     newClientMetrics(cfg.Registry),
	}
}

// Transport returns the client's transport (admin ops, lifecycle).
func (c *Client) Transport() Transport { return c.tr }

// ID returns the client's node name.
func (c *Client) ID() string { return c.cfg.ID }

// locate resolves (table, row) against the cached layout; a miss refreshes
// the whole table's region map from the master in one call.
func (c *Client) locate(ctx context.Context, table string, row kv.Key) (location, error) {
	c.mu.Lock()
	if lay := c.cache[table]; lay != nil {
		if loc, ok := lay.find(row); ok {
			c.mu.Unlock()
			c.m.layoutHits.Add(1)
			return loc, nil
		}
	}
	c.mu.Unlock()
	c.m.layoutMisses.Add(1)

	// One master round trip fetches the table's whole serving layout — a
	// scan's next thousand region transitions are then local.
	located, err := c.tr.LocateAll(ctx, table)
	c.m.masterLookups.Add(1)
	if err != nil {
		return location{}, err
	}
	lay := &tableLayout{locs: make([]location, 0, len(located))}
	for _, rl := range located {
		lay.locs = append(lay.locs, location{info: rl.Info, ep: rl.Ep, followers: rl.Followers})
	}
	// Resolve the row BEFORE publishing: once lay is in the cache a
	// concurrent invalidate may mutate its slice.
	loc, found := lay.find(row)
	c.mu.Lock()
	c.cache[table] = lay
	c.mu.Unlock()
	if found {
		return loc, nil
	}
	// The row's region is currently offline (recovering, unassigned, or on
	// a dead server): not-serving, so the caller backs off and retries.
	return location{}, fmt.Errorf("%w: %s/%s offline in layout", ErrRegionNotServing, table, row)
}

// invalidate drops the cached location of one region; the rest of the
// table's layout stays.
func (c *Client) invalidate(table, regionID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lay := c.cache[table]; lay != nil {
		lay.drop(regionID)
	}
}

// invalidateTable drops a table's whole cached layout.
func (c *Client) invalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, table)
}

// retryable reports whether an error warrants re-locating and retrying.
// ErrTransport is in the set deliberately: a connection-level failure means
// the cached endpoint may be dead, and the re-locate that precedes the
// retry asks the master for the region's current (possibly reassigned)
// address instead of hammering the dead one.
func retryable(err error) bool {
	return errors.Is(err, ErrRegionNotServing) ||
		errors.Is(err, ErrServerStopped) ||
		errors.Is(err, ErrTransport) ||
		errors.Is(err, ErrStaleEpoch) ||
		errors.Is(err, ErrLeaseExpired) ||
		errors.Is(err, netsim.ErrNodeDown) ||
		errors.Is(err, netsim.ErrUnreachable)
}

func backoff(base time.Duration, attempt int) time.Duration {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	return base << shift
}

// Get reads the newest version of (table, row, column) at or below maxTS.
func (c *Client) Get(ctx context.Context, table string, row kv.Key, column string, maxTS kv.Timestamp) (kv.KeyValue, bool, error) {
	c.m.gets.Add(1)
	sp := obs.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt < c.cfg.ReadRetries; attempt++ {
		var stageStart time.Time
		if sp != nil {
			stageStart = time.Now()
		}
		loc, err := c.locate(ctx, table, row)
		if err == nil {
			if sp != nil {
				now := time.Now()
				sp.StageEnd("get.layout", stageStart, now)
				stageStart = now
			}
			var got kv.KeyValue
			var found bool
			got, found, err = loc.ep.Get(ctx, table, row, column, maxTS)
			if err == nil {
				sp.Stage("get.server", stageStart)
				return got, found, nil
			}
			c.invalidate(table, loc.info.ID)
		}
		if !retryable(err) {
			return kv.KeyValue{}, false, err
		}
		lastErr = err
		c.m.getRetries.Add(1)
		select {
		case <-ctx.Done():
			return kv.KeyValue{}, false, ctx.Err()
		case <-time.After(backoff(c.cfg.RetryBackoff, attempt)):
		}
	}
	return kv.KeyValue{}, false, fmt.Errorf("kvstore: get %s/%s retries exhausted: %w", table, row, lastErr)
}

// Scan reads the newest visible version per coordinate in rng at or below
// maxTS across all regions of the table, materializing the whole result.
// It is a convenience wrapper over NewScanner (which callers with large
// ranges should use directly).
func (c *Client) Scan(ctx context.Context, table string, rng kv.KeyRange, maxTS kv.Timestamp, limit int) ([]kv.KeyValue, error) {
	sc := c.NewScanner(ctx, table, rng, maxTS, ScanOptions{Limit: limit})
	var out []kv.KeyValue
	for sc.Next() {
		out = append(out, sc.KV())
	}
	return out, sc.Err()
}

// GetBatch reads the newest visible version of every requested cell at or
// below maxTS. Keys are grouped by hosting server and the portions fetched
// in parallel — one round trip per involved server when locations are
// cached. Results parallel keys: found[i] reports whether kvs[i] holds a
// value. Portions hitting moved or recovering regions are re-located and
// retried like point reads.
func (c *Client) GetBatch(ctx context.Context, table string, keys []kv.CellKey, maxTS kv.Timestamp) ([]kv.KeyValue, []bool, error) {
	kvs := make([]kv.KeyValue, len(keys))
	found := make([]bool, len(keys))
	remaining := make([]int, len(keys))
	for i := range keys {
		remaining[i] = i
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.ReadRetries && len(remaining) > 0; attempt++ {
		// Group the outstanding keys by hosting server.
		type portion struct {
			ep   RegionEndpoint
			idx  []int
			keys []kv.CellKey
		}
		bySrv := make(map[string]*portion)
		var failed []int
		for _, i := range remaining {
			loc, err := c.locate(ctx, table, keys[i].Row)
			if err != nil {
				if !retryable(err) {
					return nil, nil, err
				}
				lastErr = err
				failed = append(failed, i)
				continue
			}
			p := bySrv[loc.ep.Addr()]
			if p == nil {
				p = &portion{ep: loc.ep}
				bySrv[loc.ep.Addr()] = p
			}
			p.idx = append(p.idx, i)
			p.keys = append(p.keys, keys[i])
		}

		var (
			mu       sync.Mutex
			fatalErr error
			wg       sync.WaitGroup
		)
		for _, p := range bySrv {
			wg.Add(1)
			go func(p *portion) {
				defer wg.Done()
				pkvs, pfound, err := p.ep.GetBatch(ctx, table, p.keys, maxTS)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if !retryable(err) && fatalErr == nil {
						fatalErr = err
					}
					lastErr = err
					c.invalidateTable(table)
					failed = append(failed, p.idx...)
					return
				}
				for j, i := range p.idx {
					kvs[i], found[i] = pkvs[j], pfound[j]
				}
			}(p)
		}
		wg.Wait()
		if fatalErr != nil {
			return nil, nil, fatalErr
		}
		remaining = failed
		if len(remaining) == 0 {
			return kvs, found, nil
		}
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-time.After(backoff(c.cfg.RetryBackoff, attempt)):
		}
	}
	if len(remaining) > 0 {
		return nil, nil, fmt.Errorf("kvstore: getbatch %s retries exhausted: %w", table, lastErr)
	}
	return kvs, found, nil
}

// RangeCoords sweeps the live cell coordinates in rng at or below maxTS:
// the server half of a transactional range delete. Each region server
// produces its portion with a keys-only unbounded-batch scan — value bytes
// never leave the server's merge and the sweep costs one round trip per
// region — and the coordinates come back in (row asc, column asc) order.
func (c *Client) RangeCoords(ctx context.Context, table string, rng kv.KeyRange, maxTS kv.Timestamp) ([]kv.CellKey, error) {
	sc := c.NewScanner(ctx, table, rng, maxTS, ScanOptions{Batch: -1, KeysOnly: true})
	defer sc.Close()
	var out []kv.CellKey
	for sc.Next() {
		e := sc.KV()
		out = append(out, kv.CellKey{Row: e.Row, Column: e.Column})
	}
	return out, sc.Err()
}

// Flush delivers a committed write-set to every participant server. It
// groups updates by hosting server and sends the portions in parallel.
// Failed portions are retried (after re-locating) WITHOUT LIMIT, as §3.2
// requires: a bounded retry could permanently block T_F(c) and hence the
// global thresholds; the flush only aborts when ctx is cancelled (the
// client itself dying — which recovery then covers).
//
// piggy/hasPiggy carry the failed server's T_P when the caller is the
// recovery client (paper Alg. 4 replay).
func (c *Client) Flush(ctx context.Context, ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) error {
	remaining := ws.Updates
	for attempt := 0; ; attempt++ {
		// Group remaining updates by hosting server.
		type portion struct {
			ep      RegionEndpoint
			updates []kv.Update
		}
		bySrv := make(map[string]*portion)
		var unlocated []kv.Update
		for _, u := range remaining {
			loc, err := c.locate(ctx, u.Table, u.Row)
			if err != nil {
				if !retryable(err) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					return err
				}
				unlocated = append(unlocated, u)
				continue
			}
			p := bySrv[loc.ep.Addr()]
			if p == nil {
				p = &portion{ep: loc.ep}
				bySrv[loc.ep.Addr()] = p
			}
			p.updates = append(p.updates, u)
		}

		var (
			mu     sync.Mutex
			failed []kv.Update
			wg     sync.WaitGroup
		)
		failed = append(failed, unlocated...)
		for _, p := range bySrv {
			wg.Add(1)
			go func(p *portion) {
				defer wg.Done()
				sub := kv.WriteSet{
					TxnID:    ws.TxnID,
					ClientID: ws.ClientID,
					CommitTS: ws.CommitTS,
					Updates:  p.updates,
				}
				err := p.ep.Apply(ctx, sub, piggy, hasPiggy)
				if err != nil {
					for _, u := range p.updates {
						c.invalidateTable(u.Table)
					}
					mu.Lock()
					failed = append(failed, p.updates...)
					mu.Unlock()
				}
			}(p)
		}
		wg.Wait()
		if len(failed) == 0 {
			return nil
		}
		remaining = failed
		c.m.flushRetries.Add(1)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff(c.cfg.RetryBackoff, attempt)):
		}
	}
}
