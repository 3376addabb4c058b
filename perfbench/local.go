package main

import (
	"fmt"
	"time"

	"txkv/internal/cluster"
)

const (
	// localSetups is the number of set-ups of an in-process workload: its
	// set-up time is their median.
	localSetups = 5
)

// localEnv is an in-process, in-memory cluster with a load client and a
// probe client.
type localEnv struct {
	cfg   cluster.Config
	c     *cluster.Cluster
	cl    *cluster.Client // load client
	probe *cluster.Client // failure-phase probes and whole-table checks
	led   *ledger
	live  map[string]bool // servers not crashed
}

// newLocalEnv opens a cluster on cfg over rows rows in regions equal
// regions.
func newLocalEnv(cfg cluster.Config, rows, regions int) (*localEnv, error) {
	e := &localEnv{cfg: cfg, led: newLedger(rows)}
	if err := e.open(); err != nil {
		e.teardown()
		return nil, err
	}
	if err := e.c.CreateTable(table, splitKeys(rows, regions)); err != nil {
		e.teardown()
		return nil, err
	}
	return e, nil
}

// open starts the cluster on e.cfg with fresh clients.
func (e *localEnv) open() error {
	c, err := cluster.New(e.cfg)
	if err != nil {
		return err
	}
	e.c = c
	if e.cl, err = c.NewClient("bench"); err != nil {
		return err
	}
	if e.probe, err = c.NewClient("probe"); err != nil {
		return err
	}
	e.live = map[string]bool{}
	for _, id := range c.ServerIDs() {
		e.live[id] = true
	}
	return nil
}

func (e *localEnv) teardown() {
	if e.c != nil {
		stopWithin(30*time.Second, "Cluster.Stop", e.c.Stop)
	}
}

func (e *localEnv) crashBusiest() error {
	hosted := map[string]int{}
	for _, rh := range e.c.RegionHeats() {
		if rh.Table == table {
			hosted[rh.Server]++
		}
	}
	victim, most := "", 0
	for _, id := range sortedKeys(hosted) {
		if hosted[id] > most {
			victim, most = id, hosted[id]
		}
	}
	if victim == "" {
		return fmt.Errorf("no server hosts a region")
	}
	delete(e.live, victim)
	return e.c.CrashServer(victim)
}

func (e *localEnv) replace() error {
	id, err := e.c.AddServer()
	if err != nil {
		return err
	}
	e.live[id] = true
	_, err = e.c.Rebalance()
	return err
}

// stopAll drains pending flushes and crashes every server. The cluster
// keeps its master, DFS and TM log, as a master process would.
func (e *localEnv) stopAll() error {
	err := e.c.WaitFlushed(e.c.TM().LastIssued(), 10*time.Second)
	for _, id := range sortedKeys(e.live) {
		if cerr := e.c.CrashServer(id); cerr != nil && err == nil {
			err = cerr
		}
		delete(e.live, id)
	}
	return err
}

// startAll starts as many fresh servers as the cluster began with; the
// master recovers every region onto them.
func (e *localEnv) startAll() error {
	for i := 0; i < e.cfg.Servers; i++ {
		id, err := e.c.AddServer()
		if err != nil {
			return err
		}
		e.live[id] = true
	}
	return nil
}

func (e *localEnv) prober() *cluster.Client  { return e.probe }
func (e *localEnv) master() *cluster.Cluster { return e.c }

// finish assembles a run's report: the window's operations and the failure
// phase's checks, the end-to-end metrics, and in a traced run the
// per-layer metrics.
func finish(p params, setupS float64, win *window, f *failures, in layerIn) *report {
	rep := &report{log: win.log, e2e: win.e2e()}
	rep.log.merge(&f.checks)
	rep.e2e["setup_s"] = setupS
	for k, v := range f.metrics() {
		rep.e2e[k] = v
	}
	if p.trace {
		in.win, in.fail = win, f
		rep.layers = layers(in)
	}
	return rep
}

// reportBackground prints the store's background work inside the window,
// so a run with unusual flush or compaction activity can be spotted.
func reportBackground(before, after sample) {
	comp := after.reg.Counters["reclaim.compactions"] - before.reg.Counters["reclaim.compactions"]
	printf("window background: flushes=%d compactions=%d", after.files.created(before.files)-comp, comp)
}

// written returns the user bytes the workers' acknowledged updates wrote.
func written(workers []*worker) int64 {
	var n int64
	for _, w := range workers {
		n += w.written
	}
	return n
}
