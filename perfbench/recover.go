package main

import (
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
)

// recover: the paper's failure path under load. Three region servers at
// RF=1 (so a crash is recovered by WAL split + replay from the TM log) run
// with a short heartbeat. A paced writer (so the replay a crash needs is
// bounded by a fixed throughput x heartbeat) and a paced reader run while
// the window repeats a failover cycle every recCycle. Operations due during
// an outage run late, back to back, once it ends; any still owed when the
// window closes lower ops_per_s. After the window every server is crashed
// and replaced at once. Every acknowledged commit must be readable after
// each failover and each restart. Only here do the recovery manager, WAL
// split/replay, reassignment and txlog replay work while clients load the
// cluster. It runs in memory: on disk, every update waits on an fsync, and
// the host's fsync median drifts by a quarter within a minute, so
// update_p50_us spread 0.17-0.26 of its median across seeds.

const (
	recRows      = 50_000
	recRegions   = 6
	recServers   = 3
	recWriteRate = 500 // one-row Updates per second
	// recReadRate is the paced reader's gets and scans per second, about
	// half of what one closed-loop reader completes here. Paced, ops_per_s
	// shows whether reads keep up through the crash cycles; a closed-loop
	// reader's throughput followed the host's speed, spreading 0.26 of its
	// median across seeds.
	recReadRate = 8000
	// recCycle is the period of the crash cycles: each crash is followed
	// by normal service until the next, so outages stay a small share of
	// the window and of the operations. At 2 s, ops_per_s spread 0.39 of
	// its median across seeds. At 3 s a 20 s window holds 6 cycles, and
	// failover_ms spread 0.035 over 10 seeds.
	recCycle = 3 * time.Second
)

func recoverWL(p params) (*report, error) {
	printf("config recover: %d rows x %dB values in %d regions; %d region servers, RF=1 (WAL split + replay), "+
		"in memory, HeartbeatInterval 100ms, MasterHeartbeatTimeout 300ms, zero simulated latency; "+
		"paced in %v bursts: writer %d one-row Updates/s, each applied before the next, reader %d ops/s "+
		"(70%% get, 30%% %d-row scan); "+
		"every %v: crash the busiest server, probe every region, AddServer + Rebalance; "+
		"then %d times: crash every server, start as many; median of %d set-ups",
		recRows, valueSize, recRegions, recServers, paceTick, recWriteRate, recReadRate, scanRows, recCycle, reopens, localSetups)
	setup := func() (*localEnv, error) {
		e, err := newLocalEnv(cluster.Config{
			Servers:                recServers,
			HeartbeatInterval:      100 * time.Millisecond,
			MasterHeartbeatTimeout: 300 * time.Millisecond,
		}, recRows, recRegions)
		if err == nil {
			err = loadRows(e.cl, e.led, newFiller(p.seed), seq(0, recRows, 1), 1, 500)
		}
		return e, err
	}
	e, setupS, err := medianSetup(localSetups, setup, (*localEnv).teardown)
	if e != nil {
		defer e.teardown()
	}
	if err != nil {
		return nil, err
	}

	// A traced run traces the whole window: alternating slices would not
	// line up with the crash cycles, so the overhead is left unmeasured.
	tr := newTraceCtl(p, e.c.Tracer())
	if tr != nil {
		tr.set(true)
	}
	writer := newWorker(1, 1, recRows, e.cl, e.led, p.seed*1000, tr)
	reader := newWorker(2, 2, recRows, e.cl, e.led, p.seed*1000+1, tr) // never writes

	before := sampleCluster(e.c, e.cl)
	f := newFailures(e, e.led, recRows, recRegions)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		paced(&stop, recWriteRate, func() {
			writer.update([]txnOp{{row: writer.writeRow(), put: true}})
			// The writer commits again only once its write is applied at
			// the region servers (untimed). A commit's write-set reaches
			// the servers asynchronously, so each crash left a backlog of
			// write-sets that reached the recovered region together once
			// it came back; applied concurrently, they can misorder its
			// memstore (the open skip-list defect), and one run in about
			// 60 read a stale version.
			if err := e.c.WaitFlushed(e.c.TM().LastIssued(), 10*time.Second); err != nil {
				writer.log.check(err)
			}
		})
	}()
	go func() {
		defer wg.Done()
		paced(&stop, recReadRate, func() {
			if reader.rng.Intn(10) < 7 {
				reader.get(reader.rng.Intn(recRows))
				return
			}
			lo := reader.rng.Intn(recRows - scanRows)
			reader.scan(lo, lo+scanRows, seq(lo, lo+scanRows, 1))
		})
	}()

	start := time.Now()
	win := window{start: sinceEpoch(), dur: p.window()}
	var cycleErr error
	for next := start; cycleErr == nil && next.Add(recCycle).Sub(start) <= p.window(); next = next.Add(recCycle) {
		time.Sleep(time.Until(next))
		cycleErr = f.failover()
	}
	time.Sleep(p.window() - time.Since(start))
	stop.Store(true)
	wg.Wait()
	if cycleErr != nil {
		return nil, cycleErr
	}
	if tr != nil {
		tr.set(false)
	}
	for _, w := range []*worker{writer, reader} {
		win.log.merge(&w.log)
		win.split.merge(&w.split)
	}
	after := sampleCluster(e.c, e.cl)
	reportBackground(before, after)
	if err := f.reopenAll(); err != nil {
		return nil, err
	}
	return finish(p, setupS, &win, f, layerIn{
		before: before, after: after,
		windowBytes: writer.written, paced: true,
	}), nil
}

// paceTick is the period of a paced load's bursts. Paced one call at a
// time, the reader's get p50 read 14 to 18 us from run to run (spread 0.26
// over 5 seeds); in bursts it read 9.4 to 10.8 us (0.05 over 10).
const paceTick = 10 * time.Millisecond

// paced calls fn rate times per second until stop: every paceTick it makes
// the calls fallen due since the last burst, back to back, so calls that
// came due during an outage run once it ends. Each call is timed by fn
// from its own start.
func paced(stop *atomic.Bool, rate float64, fn func()) {
	start := time.Now()
	for done := 0; !stop.Load(); time.Sleep(paceTick) {
		for due := int(time.Since(start).Seconds() * rate); done < due && !stop.Load(); done++ {
			fn()
		}
	}
}
