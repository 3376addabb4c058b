// Command perfbench is txkv's benchmark: one workload per run, measured
// for a fixed window, with every result it reads checked. It prints the
// run's environment and configuration, each metric by name with its unit,
// and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, each printed with its base
// counts and the end-to-end metric it should move. Run it through run.py,
// which builds it from the surrounding source tree:
//
//	python3 perfbench/run.py --workload read_cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// params are one run's arguments.
type params struct {
	seed    int64
	seconds int
	trace   bool
}

func (p params) window() time.Duration { return time.Duration(p.seconds) * time.Second }

// report is one run's outcome.
type report struct {
	log    opLog              // every operation, attempted and failed
	e2e    map[string]float64 // end-to-end metrics (untraced runs)
	layers []metricLine       // per-layer metrics (traced runs)
}

var workloads = map[string]func(params) (*report, error){
	"read_cold": readCold,
	"wire_rf3":  wireRF3,
	"recover":   recoverWL,
}

// e2eSpecs lists the end-to-end metrics every workload reports. The tails
// are p90, not p99: across seeds a window's p99 spread 0.2-0.5 of its
// median, its p90 0.07-0.15. Updates get no tail metric: their p90 spread
// 0.4 when they waited on fsync.
var e2eSpecs = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"update_p50_us", "us"},
	{"get_p50_us", "us"},
	{"get_p90_us", "us"},
	{"scan_p50_us", "us"},
	{"scan_p90_us", "us"},
	{"failover_ms", "ms"},
	{"reopen_s", "s"},
}

// runLimit bounds a whole run: a hang must end the run, not the harness.
const runLimit = 170 * time.Second

func main() {
	var (
		name  = flag.String("workload", "", "workload: read_cold, wire_rf3 or recover")
		seed  = flag.Int64("seed", 1, "workload seed")
		secs  = flag.Int("seconds", 10, "measured window in seconds")
		trace = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		sha   = flag.String("git", "unknown", "source revision, for the record")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *secs, trace: *trace == 1}

	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; goroutines:\n", runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, p.seed, p.seconds, *trace)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s git=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *sha)
	rep, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	l := rep.log
	fmt.Printf("ops attempted=%d failed=%d wrong_results=%d\n", l.attempted, l.failed, l.wrong)
	if l.firstErr != nil {
		fmt.Printf("first failure: %v\n", l.firstErr)
	}
	metrics := map[string]any{}
	if p.trace {
		for _, m := range rep.layers {
			fmt.Printf("layer %-38s %12.3f %-5s  [%s]  moves %s\n", m.spec.name, m.value, m.spec.unit, m.base, m.spec.moves)
			metrics[m.spec.name] = map[string]any{"value": m.value, "unit": m.spec.unit}
		}
	} else {
		for _, s := range e2eSpecs {
			v := rep.e2e[s.name]
			fmt.Printf("metric %-14s %14.4f %s\n", s.name, v, s.unit)
			metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   l.wrong == 0,
		"attempted": l.attempted,
		"failed":    l.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printf prints one line of a run's configuration or results.
func printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
