package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// ledgerWith returns a ledger over rows [0, n) loaded by the loader at
// commit ts 10, and the filler the values were encoded with.
func ledgerWith(n int) (*ledger, filler) {
	l := newLedger(n)
	l.acked(version{writer: loaderID, seq: 1}, 10, seq(0, n, 1))
	return l, newFiller(1)
}

// scanOf builds the scan result for rows, each at the loader's version.
func scanOf(f filler, rows ...int) []scanned {
	var out []scanned
	for _, r := range rows {
		out = append(out, scanned{key: rowKey(r), val: f.encodeValue(r, version{writer: loaderID, seq: 1})})
	}
	return out
}

func expectsOf(l *ledger, rows []int) []ack {
	out := make([]ack, len(rows))
	for i, r := range rows {
		out[i] = l.expect(r)
	}
	return out
}

func TestCheckScan(t *testing.T) {
	l, f := ledgerWith(10)
	want := []int{2, 3, 4, 5}
	exp := expectsOf(l, want)
	cases := []struct {
		name string
		got  []scanned
		err  string // "" = the scan is correct
	}{
		{"exact", scanOf(f, 2, 3, 4, 5), ""},
		{"duplicate", scanOf(f, 2, 3, 3, 4, 5), "duplicate row"},
		{"out of order", scanOf(f, 2, 4, 3, 5), "out of order"},
		{"missing", scanOf(f, 2, 3, 5), "missing row"},
		{"missing last", scanOf(f, 2, 3, 4), "missing row"},
		{"extra", scanOf(f, 2, 3, 4, 5, 6), "unexpected row"},
		{"extra first", scanOf(f, 1, 2, 3, 4, 5), "unexpected row"},
	}
	for _, c := range cases {
		err := l.checkScan(c.got, want, exp)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.err)
		}
	}

	// A value that belongs to another row is caught too.
	bad := scanOf(f, 2, 3, 4, 5)
	bad[1].val = f.encodeValue(7, version{writer: loaderID, seq: 1})
	if err := l.checkScan(bad, want, exp); err == nil || !strings.Contains(err.Error(), "belongs to row 7") {
		t.Errorf("foreign value: got %v", err)
	}
}

func TestCheckValueVersions(t *testing.T) {
	l, f := ledgerWith(4)
	w1 := version{writer: 1, seq: 5}
	l.acked(w1, 20, []int{0})
	w2 := version{writer: 2, seq: 1}
	l.acked(w2, 15, nil) // writer 2's seq 1 committed at 15, before w1

	want := l.expect(0)
	if err := l.checkValue(0, f.encodeValue(0, w1), true, want); err != nil {
		t.Errorf("acknowledged version rejected: %v", err)
	}
	if err := l.checkValue(0, f.encodeValue(0, version{writer: 1, seq: 4}), true, want); err == nil {
		t.Error("older sequence of the same writer accepted")
	}
	if err := l.checkValue(0, f.encodeValue(0, w2), true, want); err == nil {
		t.Error("another writer's older commit accepted")
	}
	if err := l.checkValue(0, f.encodeValue(0, version{writer: loaderID, seq: 1}), true, want); err == nil {
		t.Error("the loaded version accepted after an acknowledged overwrite")
	}
	// A newer write not yet acknowledged is accepted.
	if err := l.checkValue(0, f.encodeValue(0, version{writer: 2, seq: 9}), true, want); err != nil {
		t.Errorf("unacknowledged newer write rejected: %v", err)
	}
	if err := l.checkValue(0, nil, false, want); err == nil {
		t.Error("acknowledged row read absent accepted")
	}

	absent := newLedger(4)
	if err := absent.checkValue(3, nil, false, absent.expect(3)); err != nil {
		t.Errorf("absent row read absent: %v", err)
	}
	if err := absent.checkValue(3, f.encodeValue(3, w1), true, absent.expect(3)); err == nil {
		t.Error("absent row read present accepted")
	}
}

func TestValueRoundTrip(t *testing.T) {
	f := newFiller(7)
	v := f.encodeValue(123456, version{writer: 2, seq: 987654})
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	row, got, err := decodeValue(v)
	if err != nil || row != 123456 || got != (version{writer: 2, seq: 987654}) {
		t.Fatalf("decode = %d %v %v", row, got, err)
	}
	if _, _, err := decodeValue([]byte("short")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestOpLogCountsWrongResults(t *testing.T) {
	var l opLog
	l.record(opGet, time.Millisecond, nil)
	l.record(opGet, 0, wrong(errors.New("stale")))
	l.record(opScan, 0, errors.New("context deadline exceeded"))
	l.check(wrong(errors.New("missing row")))
	if l.attempted != 4 || l.failed != 3 || l.wrong != 2 || l.completed() != 1 {
		t.Fatalf("attempted %d failed %d wrong %d completed %d", l.attempted, l.failed, l.wrong, l.completed())
	}
	if len(l.lat[opGet]) != 1 || len(l.lat[opScan]) != 0 {
		t.Fatalf("latencies recorded for failed operations: %v", l.lat)
	}
}

func TestWindowMetricsCoverWholeWindow(t *testing.T) {
	win := window{start: time.Second, dur: 5 * time.Second}
	// One get every 10ms, 1ms each, except in one 1s stretch where every
	// get takes 50ms: a fifth of the samples, so p90 must show it.
	for i := 0; i < 500; i++ {
		d := time.Millisecond
		if i >= 200 && i < 300 {
			d = 50 * time.Millisecond
		}
		end := win.start + time.Duration(i)*10*time.Millisecond
		win.log.lat[opGet] = append(win.log.lat[opGet], opSample{end: end, d: d})
		win.log.attempted++
	}
	// Operations ending outside the window count nowhere.
	win.log.lat[opGet] = append(win.log.lat[opGet],
		opSample{end: win.start - 1, d: time.Hour}, opSample{end: win.start + win.dur, d: time.Hour})
	m := win.e2e()
	if m["get_p50_us"] != 1000 || m["get_p90_us"] != 50000 {
		t.Errorf("get p50/p90 = %v/%v us, want 1000/50000", m["get_p50_us"], m["get_p90_us"])
	}
	if m["ops_per_s"] != 100 {
		t.Errorf("ops_per_s = %v, want 100", m["ops_per_s"])
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if q := quantile(ds, 0.5); q != 50 {
		t.Errorf("p50 = %d, want 50", q)
	}
	if q := quantile(ds, 0.90); q != 90 {
		t.Errorf("p90 = %d, want 90", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty p50 = %d", q)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
