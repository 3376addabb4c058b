package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"txkv/internal/cluster"
)

// read_cold: reads over a frozen, multi-file LSM layout whose working set
// is several times the block cache. Set-up loads the even row ids, then
// overwrites a few percent of them in waves with a WAL roll after each, so
// every region holds coldFiles overlapping store files; compaction and
// memstore flushes are off during the window. The store-file read path
// dominates (bloom, block index, decompression, cache eviction, DFS reads,
// k-way merge). Every run reports update latency, so 5% of the operations
// are one-put updates; they land in the memstore and leave the store files
// as staged. It runs in memory: on disk, those updates wait on fsync and
// their p50 spread 0.3 of its median across seeds. Its failure phase
// therefore restarts every server in place of a Reopen.

const (
	coldRows     = 120_000 // id space; even ids are present, odd ids absent
	coldRegions  = 4
	coldWaves    = 3 // overwrite waves after the initial load
	coldFiles    = 1 + coldWaves
	coldCacheKiB = 512 // block cache per region server
)

func readCold(p params) (*report, error) {
	printf("config read_cold: %d present rows (even ids of %d) x %dB values in %d regions; 2 region servers, RF=1, "+
		"in-memory DFS and TM log, %d overwrite waves of 5%% -> %d store files per region, compaction and flushes off, "+
		"block cache %d KiB per server; 2 closed-loop goroutines on one client, each 40%% get present, "+
		"40%% get absent, 15%% %d-row scan, 5%% one-put Update on its own regions' rows; "+
		"median of %d set-ups; then %d failover cycles and %d reopens",
		coldRows/2, coldRows, valueSize, coldRegions, coldWaves, coldFiles, coldCacheKiB, scanRows,
		localSetups, failoverCycles, reopens)
	setup := func() (*localEnv, error) {
		e, err := newLocalEnv(cluster.Config{
			Servers:                2,
			MemstoreFlushBytes:     1 << 30,
			BlockCacheBytes:        coldCacheKiB << 10,
			HeartbeatInterval:      100 * time.Millisecond,
			MasterHeartbeatTimeout: 300 * time.Millisecond,
		}, coldRows, coldRegions)
		if err == nil {
			err = stageCold(e, p.seed)
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
	if err := checkColdLayout(e.c); err != nil {
		return nil, err
	}

	tr := newTraceCtl(p, e.c.Tracer())
	workers := make([]*worker, 2)
	for g := range workers {
		workers[g] = newWorker(g+1, len(workers), coldRows, e.cl, e.led, p.seed*1000+int64(g), tr)
	}
	step := func(w *worker) {
		switch r := w.rng.Intn(20); {
		case r == 0:
			w.update([]txnOp{{row: w.writeRow() &^ 1, put: true}})
		case r <= 8:
			w.get(2 * w.rng.Intn(coldRows/2))
		case r <= 16:
			w.get(2*w.rng.Intn(coldRows/2) + 1)
		default:
			lo := 2 * w.rng.Intn((coldRows-2*scanRows)/2)
			w.scan(lo, lo+2*scanRows, seq(lo, lo+2*scanRows, 2))
		}
	}
	warmUp(workers, step)
	before := sampleCluster(e.c, e.cl)
	win := runClosed(workers, p.window(), tr, step)
	after := sampleCluster(e.c, e.cl)
	reportBackground(before, after)
	if err := checkColdLayout(e.c); err != nil {
		return nil, fmt.Errorf("after the window: %w", err)
	}
	// The failure phase starts from the staged files: the window's updates
	// are flushed, so crash recovery replays no WAL tail.
	if err := e.c.RollWALs(); err != nil {
		return nil, err
	}

	f := newFailures(e, e.led, coldRows, coldRegions)
	if err := f.run(); err != nil {
		return nil, err
	}
	wb := written(workers)
	return finish(p, setupS, &win, f, layerIn{
		before: before, after: after, windowBytes: wb,
	}), nil
}

// stageCold loads the present rows and the overwrite waves, rolling the
// WALs after each so every region gets one store file per wave.
func stageCold(e *localEnv, seed int64) error {
	fill := newFiller(seed)
	rng := rand.New(rand.NewSource(seed))
	for wave := 1; wave <= coldFiles; wave++ {
		ids := seq(0, coldRows, 2)
		if wave > 1 {
			// 5% of the present rows, distinct and ascending.
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:len(ids)/20]
			slices.Sort(ids)
		}
		if err := loadRows(e.cl, e.led, fill, ids, wave, 1000); err != nil {
			return err
		}
		if err := e.c.WaitFlushed(e.c.TM().LastIssued(), 10*time.Second); err != nil {
			return err
		}
		if err := e.c.RollWALs(); err != nil {
			return fmt.Errorf("roll WALs after wave %d: %w", wave, err)
		}
	}
	return nil
}

// checkColdLayout verifies the staged shape: every region holds exactly
// coldFiles store files.
func checkColdLayout(c *cluster.Cluster) error {
	l := storeLayout(c.DFS())
	if len(l.files) != coldRegions {
		return fmt.Errorf("read_cold layout: %d regions with store files, want %d", len(l.files), coldRegions)
	}
	for dir, n := range l.files {
		if n != coldFiles {
			return fmt.Errorf("read_cold layout: region %s has %d store files, want %d", dir, n, coldFiles)
		}
	}
	return nil
}
