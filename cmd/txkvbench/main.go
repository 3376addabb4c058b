// Command txkvbench regenerates the paper's evaluation (§4): every figure
// plus the additional claims quantified in the text. Each experiment prints
// the same rows/series the paper reports; EXPERIMENTS.md records a
// reference run against the paper's numbers.
//
// Usage:
//
//	txkvbench -experiment fig2a       # response time vs throughput, sync vs async persistence
//	txkvbench -experiment fig2b       # tracking overhead vs heartbeat interval
//	txkvbench -experiment fig3        # throughput/response-time series across a server failure
//	txkvbench -experiment replaybound # write-sets replayed vs heartbeat interval (§3.1 bound)
//	txkvbench -experiment truncation  # log growth with/without truncation (§3.2 checkpoint)
//	txkvbench -experiment clientfail  # client-failure recovery (§3.1)
//	txkvbench -experiment rmfail      # recovery-manager fail-over (§3.3)
//	txkvbench -experiment durability  # storage engine: mem vs disk backend + timed restart
//	txkvbench -experiment compaction  # DataDir plateau + read p99 under the storage janitor
//	txkvbench -experiment txn_retry   # managed Update retry vs caller retry loops under contention
//	txkvbench -experiment watch       # change streams: commit-path isolation, delivery latency, catch-up replay
//	txkvbench -experiment replication # region replication: quorum-ack commit price, follower-read scans, failover blip
//	txkvbench -experiment all
//
// Each experiment prints its table to stdout. The end-to-end latency and
// throughput workloads (cold reads, TCP at three copies, crash recovery)
// live in perfbench, which emits machine-readable results.
//
// -records, -duration and -threads scale every experiment; -seed fixes the
// workload RNGs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"txkv/internal/bench"
)

func main() {
	log.SetFlags(0)
	var (
		experiment = flag.String("experiment", "all", "fig2a|fig2b|fig3|replaybound|truncation|clientfail|rmfail|durability|compaction|txn_retry|watch|replication|all")
		records    = flag.Int("records", 20000, "rows to load")
		duration   = flag.Duration("duration", 4*time.Second, "measurement duration per point")
		threads    = flag.Int("threads", 50, "client threads (the paper uses 50)")
		seed       = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	opts := bench.Options{
		Records:  *records,
		Duration: *duration,
		Threads:  *threads,
		Seed:     *seed,
		Out:      os.Stdout,
	}

	experiments := map[string]func(bench.Options) error{
		"fig2a":       bench.Fig2aSyncVsAsync,
		"fig2b":       bench.Fig2bHeartbeatOverhead,
		"fig3":        bench.Fig3FailureTimeline,
		"replaybound": bench.ReplayBound,
		"truncation":  bench.LogTruncation,
		"clientfail":  bench.ClientFailure,
		"rmfail":      bench.RMFailover,
		"durability":  bench.Durability,
		"compaction":  bench.Compaction,
		"txn_retry":   bench.TxnRetry,
		"watch":       bench.Watch,
		"replication": bench.Replication,
	}
	order := []string{"fig2a", "fig2b", "fig3", "replaybound", "truncation", "clientfail", "rmfail", "durability", "compaction", "txn_retry", "watch", "replication"}

	run := func(name string) {
		fn, ok := experiments[name]
		if !ok {
			log.Fatalf("unknown experiment %q", name)
		}
		fmt.Printf("\n================ %s ================\n", name)
		if err := fn(opts); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	if *experiment == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*experiment)
}
