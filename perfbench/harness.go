package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"txkv/internal/cluster"
	"txkv/internal/kv"
	"txkv/internal/obs"
	"txkv/internal/txmgr"
)

const (
	table       = "t"
	scanRows    = 100 // rows one scan returns
	updateTries = 8   // conflict retries of a split (traced) update, as Update's default
	flushSample = 64  // traced commits per timed WaitFlushed
)

var bg = context.Background()

// medianSetup runs setup n times, tearing down all but the last
// environment, and returns that one with the median set-up time in
// seconds: one read_cold set-up reads anywhere from 0.35 to 0.53 s.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		env   T
		times []float64
	)
	for i := 0; i < n; i++ {
		start := time.Now()
		e, err := setup()
		times = append(times, time.Since(start).Seconds())
		if err != nil || i == n-1 {
			printf("set-ups: %s s", fmtFloats(times))
			return e, median(times), err
		}
		teardown(e)
	}
	return env, 0, nil
}

// stopWithin runs fn, giving up after d: teardown sits outside the measured
// window and must not hang a run.
func stopWithin(d time.Duration, what string, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v; abandoned\n", what, d)
	}
}

// splitLog holds the per-call timings of a traced run: a transaction timed
// as its public calls instead of as one Update.
type splitLog struct {
	begin, get, put, commit, flushWait []time.Duration
	// serverGet times the owning region server's own Get of the row a
	// remote Get just read: the read without client, codec and wire.
	serverGet        []time.Duration
	commits, retries int64
}

func (s *splitLog) merge(o *splitLog) {
	s.begin = append(s.begin, o.begin...)
	s.get = append(s.get, o.get...)
	s.serverGet = append(s.serverGet, o.serverGet...)
	s.put = append(s.put, o.put...)
	s.commit = append(s.commit, o.commit...)
	s.flushWait = append(s.flushWait, o.flushWait...)
	s.commits += o.commits
	s.retries += o.retries
}

// traceCtl switches a traced run between untraced and traced slices of the
// window, so the tracing overhead is measured on the same cluster state.
type traceCtl struct {
	on     atomic.Bool
	tracer *obs.Tracer
}

// newTraceCtl returns the trace switch of a traced run, nil otherwise.
func newTraceCtl(p params, tracer *obs.Tracer) *traceCtl {
	if !p.trace {
		return nil
	}
	return &traceCtl{tracer: tracer}
}

func (t *traceCtl) set(on bool) {
	t.tracer.SetEnabled(on)
	t.on.Store(on)
}

// worker is one load goroutine's state. Its writes carry its id and a
// per-worker sequence, and go only to its own rows [wlo, whi): rows of
// regions no other load goroutine writes. Concurrent applies of two
// write-sets to one memstore can misorder its skip list (an open defect;
// reads then return stale versions or duplicate rows, which the checks
// count as wrong results), so no two goroutines write the same region.
type worker struct {
	id       int
	wlo, whi int
	cl       *cluster.Client
	led      *ledger
	fill     filler
	rng      *rand.Rand
	seq      int
	// written counts the user bytes of acknowledged updates.
	written int64

	log   opLog
	split splitLog
	// ops completed in untraced / traced slices of a traced run.
	sliceOps [2]int64
	tr       *traceCtl // nil in an untraced run
	// waitFlushed, when set, is timed after every flushSample-th traced
	// commit.
	waitFlushed func(kv.Timestamp) error
	// serverGet, when set, is timed after every traced get: the owning
	// region server's Get of the same row at the same snapshot.
	serverGet func(row int, ts kv.Timestamp) (time.Duration, error)

	scanBuf []scanned
}

// newWorker returns load goroutine id of n, writing the id-th of n equal
// slices of rows [0, rows).
func newWorker(id, n, rows int, cl *cluster.Client, led *ledger, seed int64, tr *traceCtl) *worker {
	return &worker{
		id:   id,
		wlo:  (id - 1) * rows / n,
		whi:  id * rows / n,
		cl:   cl,
		led:  led,
		fill: newFiller(seed),
		rng:  rand.New(rand.NewSource(seed)),
		tr:   tr,
	}
}

// writeRow returns a uniform row among the worker's own.
func (w *worker) writeRow() int { return w.wlo + w.rng.Intn(w.whi-w.wlo) }

func (w *worker) traced() bool { return w.tr != nil && w.tr.on.Load() }

func (w *worker) done(k opKind, start time.Time, traced bool, err error) {
	w.log.record(k, time.Since(start), err)
	if err == nil && w.tr != nil {
		if traced {
			w.sliceOps[1]++
		} else {
			w.sliceOps[0]++
		}
	}
}

// txnOp is one access of a read-write transaction.
type txnOp struct {
	row int
	put bool
}

// update runs one read-write transaction over ops and records it.
func (w *worker) update(ops []txnOp) {
	w.seq++
	v := version{writer: w.id, seq: w.seq}
	wants := make([]ack, len(ops))
	var puts []int
	for i, op := range ops {
		if op.put {
			puts = append(puts, op.row)
		} else {
			wants[i] = w.led.expect(op.row)
		}
	}
	traced := w.traced()
	start := time.Now()
	var (
		cts kv.Timestamp
		err error
	)
	if traced {
		cts, err = w.updateSplit(ops, v, wants)
	} else {
		cts, err = w.cl.Update(bg, func(txn *cluster.Txn) error {
			return w.txnBody(txn, ops, v, wants, nil)
		})
	}
	if err == nil {
		w.led.acked(v, cts, puts)
		w.written += int64(len(puts)) * (valueSize + 9)
	}
	w.done(opUpdate, start, traced, err)
}

// txnBody performs ops inside txn, checking every read; sl, when non-nil,
// receives per-call timings.
func (w *worker) txnBody(txn *cluster.Txn, ops []txnOp, v version, wants []ack, sl *splitLog) error {
	for i, op := range ops {
		t := time.Now()
		if op.put {
			if err := txn.Put(bg, table, rowKey(op.row), column, w.fill.encodeValue(op.row, v)); err != nil {
				return err
			}
			if sl != nil {
				sl.put = append(sl.put, time.Since(t))
			}
			continue
		}
		val, found, err := txn.Get(bg, table, rowKey(op.row), column)
		if err != nil {
			return err
		}
		if sl != nil {
			sl.get = append(sl.get, time.Since(t))
		}
		if err := w.led.checkValue(op.row, val, found, wants[i]); err != nil {
			return wrong(err)
		}
	}
	return nil
}

// updateSplit is update through the explicit public calls, each timed:
// BeginTxn, Get/Put, Commit, and (every flushSample-th commit) WaitFlushed,
// sampled so its wait barely shows in the traced slices' throughput.
func (w *worker) updateSplit(ops []txnOp, v version, wants []ack) (kv.Timestamp, error) {
	sl := &w.split
	for attempt := 0; ; attempt++ {
		t := time.Now()
		txn, err := w.cl.BeginTxn(cluster.TxnOptions{})
		if err != nil {
			return 0, err
		}
		sl.begin = append(sl.begin, time.Since(t))
		if err := w.txnBody(txn, ops, v, wants, sl); err != nil {
			txn.Abort()
			return 0, err
		}
		t = time.Now()
		cts, err := txn.Commit(bg)
		sl.commit = append(sl.commit, time.Since(t))
		if err == nil {
			sl.commits++
			if w.waitFlushed != nil && sl.commits%flushSample == 0 {
				t = time.Now()
				if err := w.waitFlushed(cts); err != nil {
					return cts, err
				}
				sl.flushWait = append(sl.flushWait, time.Since(t))
			}
			return cts, nil
		}
		if !txmgr.IsRetryable(err) || attempt >= updateTries {
			return 0, err
		}
		sl.retries++
		time.Sleep(min(time.Millisecond<<attempt, 64*time.Millisecond))
	}
}

// get reads one row in a View and checks it.
func (w *worker) get(row int) {
	want := w.led.expect(row)
	traced := w.traced()
	start := time.Now()
	err := w.cl.View(bg, func(txn *cluster.Txn) error {
		t := time.Now()
		val, found, err := txn.Get(bg, table, rowKey(row), column)
		if err != nil {
			return err
		}
		if traced {
			w.split.get = append(w.split.get, time.Since(t))
			if w.serverGet != nil {
				d, err := w.serverGet(row, txn.StartTS())
				if err != nil {
					return err
				}
				w.split.serverGet = append(w.split.serverGet, d)
			}
		}
		return wrong(w.led.checkValue(row, val, found, want))
	})
	w.done(opGet, start, traced, err)
}

// scan reads rows [lo, hi) in a View, drains the scanner and checks that it
// returned exactly want (the rows present in the range).
func (w *worker) scan(lo, hi int, want []int) {
	expects := make([]ack, len(want))
	for i, r := range want {
		expects[i] = w.led.expect(r)
	}
	traced := w.traced()
	start := time.Now()
	err := w.cl.View(bg, func(txn *cluster.Txn) error {
		got, err := scanRange(txn, lo, hi, w.scanBuf[:0])
		w.scanBuf = got
		if err != nil {
			return err
		}
		return wrong(w.led.checkScan(got, want, expects))
	})
	w.done(opScan, start, traced, err)
}

// scanRange drains a scan of rows [lo, hi) into buf.
func scanRange(txn *cluster.Txn, lo, hi int, buf []scanned) ([]scanned, error) {
	sc := txn.Scan(bg, table, kv.KeyRange{Start: rowKey(lo), End: rowKey(hi)}, cluster.ScanOptions{})
	defer sc.Close()
	for sc.Next() {
		e := sc.KV()
		buf = append(buf, scanned{key: e.Row, val: e.Value})
	}
	return buf, sc.Err()
}

// warmUpTime is run before every closed-loop window and not measured, so
// caches, connections and routing tables settle first.
const warmUpTime = time.Second

// warmUp runs the mix for warmUpTime and discards its timings. Its
// failures stay counted.
func warmUp(workers []*worker, step func(*worker)) {
	runClosed(workers, warmUpTime, nil, step)
	for _, w := range workers {
		l := w.log
		w.log = opLog{attempted: l.failed, failed: l.failed, wrong: l.wrong, firstErr: l.firstErr}
		w.split = splitLog{}
		w.sliceOps = [2]int64{}
		w.written = 0
	}
}

// window is the outcome of one measured load window.
type window struct {
	start, dur time.Duration // since epoch; operations ending in [start, start+dur) count
	log        opLog
	split      splitLog
	// overheadPct is the traced slices' throughput loss against the
	// untraced slices (traced runs only).
	overheadPct float64
}

// runClosed drives the workers closed-loop for d, each calling step for
// one operation at a time. In a traced run (tr non-nil) the window is four
// slices alternating untraced and traced.
func runClosed(workers []*worker, d time.Duration, tr *traceCtl, step func(w *worker)) window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	win := window{start: sinceEpoch(), dur: d}
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				step(w)
			}
		}()
	}
	var modeTime [2]time.Duration
	if tr == nil {
		time.Sleep(d)
	} else {
		for i := 0; i < 4; i++ {
			on := i%2 == 1
			tr.set(on)
			t := time.Now()
			time.Sleep(d / 4)
			modeTime[b2i(on)] += time.Since(t)
		}
		tr.set(false)
	}
	stop.Store(true)
	wg.Wait()
	var slice [2]int64
	for _, w := range workers {
		win.log.merge(&w.log)
		win.split.merge(&w.split)
		slice[0] += w.sliceOps[0]
		slice[1] += w.sliceOps[1]
	}
	if tr != nil && slice[0] > 0 {
		off := float64(slice[0]) / modeTime[0].Seconds()
		on := float64(slice[1]) / modeTime[1].Seconds()
		win.overheadPct = 100 * (off - on) / off
	}
	return win
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// e2e computes the operation metrics of a window: throughput over the
// whole window and exact quantiles over every operation ending in it.
func (win *window) e2e() map[string]float64 {
	m := map[string]float64{}
	n := 0
	for k := opKind(0); k < numOpKinds; k++ {
		var ds []time.Duration
		for _, s := range win.log.lat[k] {
			if s.end >= win.start && s.end < win.start+win.dur {
				ds = append(ds, s.d)
			}
		}
		n += len(ds)
		m[opNames[k]+"_p50_us"] = micros(quantile(ds, 0.50))
		m[opNames[k]+"_p90_us"] = micros(quantile(ds, 0.90))
		printf("window %s: %d samples, p50 %.1f us, p90 %.1f us, p99 %.1f us", opNames[k], len(ds),
			m[opNames[k]+"_p50_us"], m[opNames[k]+"_p90_us"], micros(quantile(ds, 0.99)))
	}
	m["ops_per_s"] = float64(n) / win.dur.Seconds()
	return m
}

// loadRows writes rows (ascending ids from ids) in transactions of batch
// rows as writer loaderID at sequence wave, acknowledging them in led.
func loadRows(cl *cluster.Client, led *ledger, fill filler, ids []int, wave, batch int) error {
	v := version{writer: loaderID, seq: wave}
	for lo := 0; lo < len(ids); lo += batch {
		chunk := ids[lo:min(lo+batch, len(ids))]
		cts, err := cl.Update(bg, func(txn *cluster.Txn) error {
			for _, r := range chunk {
				if err := txn.Put(bg, table, rowKey(r), column, fill.encodeValue(r, v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load rows %d..%d: %w", chunk[0], chunk[len(chunk)-1], err)
		}
		led.acked(v, cts, chunk)
	}
	return nil
}

// splitKeys returns n-1 row keys splitting [0, rows) into n equal regions.
func splitKeys(rows, n int) []kv.Key {
	var ks []kv.Key
	for i := 1; i < n; i++ {
		ks = append(ks, rowKey(i*rows/n))
	}
	return ks
}

// seq returns the ids lo, lo+step, ... below hi.
func seq(lo, hi, step int) []int {
	var out []int
	for i := lo; i < hi; i += step {
		out = append(out, i)
	}
	return out
}
