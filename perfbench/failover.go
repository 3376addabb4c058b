package main

import (
	"errors"
	"fmt"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/core"
)

// The failure phase: the paper's Fig. 3 path, timed on a running
// deployment. A failover cycle crashes the region server hosting the most
// regions and times until one row of every region reads correctly again
// (failover_ms), then adds a server in its place. A reopen
// crashes every region server and times bringing the deployment back until
// every region reads (reopen_s). After each, every acknowledged write is
// checked. Every workload runs the phase, so every run reports both
// metrics: recover with its load running, the others after their window.

// failoverCycles is the number of crash cycles of the phase after a load
// window.
const failoverCycles = 9

// reopens is the number of whole-deployment restarts of the phase. The
// first replays what the load left in the TM log; the later ones bring
// back that same state again, so their median is steady.
const reopens = 7

// deployment is what the failure phase needs of a running system.
type deployment interface {
	// crashBusiest crashes the region server hosting the most regions.
	crashBusiest() error
	// replace adds a region server in place of the crashed one.
	replace() error
	// stopAll drains pending flushes and crashes every region server.
	stopAll() error
	// startAll brings the stopped deployment back (timed by the caller).
	startAll() error
	// prober is the client the phase reads through.
	prober() *cluster.Client
	// master is the cluster whose recovery manager and txlog serve the
	// deployment.
	master() *cluster.Cluster
}

// failures runs the failure phase and keeps its timings.
type failures struct {
	d             deployment
	led           *ledger
	rows, regions int

	checks     opLog // probes and whole-table checks, every one counted
	failoverMs []float64
	reopenS    []float64
	events     []core.RecoveryEvent
	eventsFrom int
}

func newFailures(d deployment, led *ledger, rows, regions int) *failures {
	f := &failures{rows: rows, regions: regions}
	f.use(d, led)
	return f
}

// use points the phase at deployment d, whose writes led acknowledges.
func (f *failures) use(d deployment, led *ledger) {
	f.d, f.led = d, led
	f.eventsFrom = len(d.master().RecoveryManager().Events())
}

// collectEvents keeps the region recoveries the deployment's recovery
// manager has logged since the last collection.
func (f *failures) collectEvents() {
	evs := f.d.master().RecoveryManager().Events()
	for _, ev := range evs[f.eventsFrom:] {
		if ev.Kind == "region" {
			f.events = append(f.events, ev)
		}
	}
	f.eventsFrom = len(evs)
}

// run is the phase after a load window: failoverCycles crash cycles, then
// the reopens.
func (f *failures) run() error {
	for i := 0; i < failoverCycles; i++ {
		if err := f.failover(); err != nil {
			return err
		}
	}
	return f.reopenAll()
}

// failover runs one crash cycle.
func (f *failures) failover() error {
	t0 := time.Now()
	if err := f.d.crashBusiest(); err != nil {
		return err
	}
	// A region that stays unreadable or reads wrong is a failed check, not
	// the end of the run.
	f.probeAll()
	f.failoverMs = append(f.failoverMs, float64(time.Since(t0))/float64(time.Millisecond))
	f.checks.check(f.d.replace())
	f.checks.check(f.checkAll())
	f.collectEvents()
	return nil
}

// reopenAll restarts the deployment reopens times.
func (f *failures) reopenAll() error {
	for k := 0; k < reopens; k++ {
		f.checks.check(f.d.stopAll())
		t0 := time.Now()
		if err := f.d.startAll(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		f.probeAll()
		f.reopenS = append(f.reopenS, time.Since(t0).Seconds())
		f.checks.check(f.checkAll())
	}
	return nil
}

// metrics returns the phase's end-to-end metrics: medians over its cycles.
func (f *failures) metrics() map[string]float64 {
	printf("failover_ms per cycle: %s (median %.1f)", fmtFloats(f.failoverMs), median(f.failoverMs))
	printf("reopen_s per reopen: %s (median %.3f)", fmtFloats(f.reopenS), median(f.reopenS))
	return map[string]float64{"failover_ms": median(f.failoverMs), "reopen_s": median(f.reopenS)}
}

// probeAll reads the first row of every region until each reads correctly.
func (f *failures) probeAll() {
	for i := 0; i < f.regions; i++ {
		f.checks.check(f.probeRow(i * f.rows / f.regions))
	}
}

// probeRow reads row until it returns a correct value. A wrong value ends
// the probe with an error; an unavailable region is retried.
func (f *failures) probeRow(row int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		want := f.led.expect(row)
		err := f.d.prober().View(bg, func(txn *cluster.Txn) error {
			val, found, err := txn.Get(bg, table, rowKey(row), column)
			if err != nil {
				return err
			}
			return wrong(f.led.checkValue(row, val, found, want))
		})
		if err == nil || errors.As(err, new(*wrongResult)) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("row %d unreadable for 30s: %w", row, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkAll scans the whole table and checks that it holds exactly the
// acknowledged rows, each at its newest acknowledged write or later.
func (f *failures) checkAll() error {
	var want []int
	var expects []ack
	for r := 0; r < f.rows; r++ {
		if a := f.led.expect(r); a.cts != 0 {
			want = append(want, r)
			expects = append(expects, a)
		}
	}
	return f.d.prober().View(bg, func(txn *cluster.Txn) error {
		got, err := scanRange(txn, 0, f.rows, nil)
		if err != nil {
			return err
		}
		return wrong(f.led.checkScan(got, want, expects))
	})
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}
