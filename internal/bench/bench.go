// Package bench implements the experiments cmd/txkvbench runs: the paper's
// evaluation (§4) plus the subsystem experiments the perfbench workloads do
// not cover. Each paper experiment builds a cluster whose simulated
// latencies keep the paper's testbed ratios (LAN RPC ≪ log fsync < DFS
// pipeline sync), runs the YCSB transactional workload of §4.1, and prints
// the rows or series the corresponding figure plots.
package bench

import (
	"fmt"
	"io"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/ycsb"
)

// Options scales the experiments. The defaults in cmd/txkvbench reproduce
// the figure shapes in a few minutes on a laptop.
type Options struct {
	// Records is the number of rows to load (paper: 500k; scaled down by
	// default — the shapes depend on latency ratios, not table size).
	Records int
	// Duration is the measurement length per data point.
	Duration time.Duration
	// Threads is the number of client threads (paper: 50).
	Threads int
	// Seed seeds workload RNGs.
	Seed int64
	// Out receives the printed rows.
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Records <= 0 {
		o.Records = 20000
	}
	if o.Duration <= 0 {
		o.Duration = 4 * time.Second
	}
	if o.Threads <= 0 {
		o.Threads = 50
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// paperRatioConfig returns a cluster config whose latencies preserve the
// paper's testbed ratios: a ~0.1 ms LAN hop, ~1 ms group-commit fsync on
// the TM's fast local log, ~3 ms DFS pipeline sync (two replicas over the
// LAN plus disk), ~0.3 ms DFS block fetch.
func paperRatioConfig(servers int, syncPersistence bool, heartbeat time.Duration) cluster.Config {
	return cluster.Config{
		Servers:                servers,
		Replication:            2,
		RPCLatency:             100 * time.Microsecond,
		LogSyncLatency:         time.Millisecond,
		DFSSyncLatency:         3 * time.Millisecond,
		DFSReadLatency:         300 * time.Microsecond,
		SyncPersistence:        syncPersistence,
		HeartbeatInterval:      heartbeat,
		MasterHeartbeatTimeout: 2 * time.Second,
		WALSyncInterval:        50 * time.Millisecond,
	}
}

// workload returns the paper's §4.1 transaction mix over o.Records rows.
func workload(o Options) ycsb.Workload {
	return ycsb.Workload{
		Table:        "usertable",
		RecordCount:  o.Records,
		OpsPerTxn:    10,
		ReadRatio:    0.5,
		ValueSize:    100,
		Distribution: "uniform",
	}
}

// setup boots a cluster and loads the workload table across the servers.
func setup(o Options, cfg cluster.Config) (*cluster.Cluster, ycsb.Workload, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, ycsb.Workload{}, err
	}
	w := workload(o)
	// One region per server, like the paper's evenly-spread regions.
	if err := ycsb.Load(c, w, cfg.Servers, 1000, 4); err != nil {
		c.Stop()
		return nil, ycsb.Workload{}, err
	}
	return c, w, nil
}

// warmup runs a short untimed burst so caches and region locations are hot
// before measurement (the paper warms the block cache before each run).
func warmup(c *cluster.Cluster, w ycsb.Workload, o Options) error {
	_, err := ycsb.Run(c, w, ycsb.RunnerConfig{
		Threads:  o.Threads,
		Duration: o.Duration / 4,
		Seed:     o.Seed + 999,
	})
	return err
}

func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}
