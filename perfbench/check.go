package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"txkv/internal/kv"
)

// Result checks. Every value the benchmark writes names its row and the
// version that wrote it (writer id + writer sequence), so a read can be
// checked against the ledger of acknowledged writes: it must return the
// row it asked for, and a version no older than the newest write that was
// acknowledged before the read began.

const (
	valueSize = 100
	column    = "f"
	loaderID  = 0 // writer id of set-up loads and overwrite waves
)

func rowKey(row int) kv.Key { return kv.Key(fmt.Sprintf("r%08d", row)) }

// version identifies one write: the writer and its per-writer sequence.
type version struct {
	writer, seq int
}

// filler is a pool of random letters values are padded from, so store-file
// blocks compress like text rather than like a repeated constant.
type filler []byte

func newFiller(seed int64) filler {
	rng := rand.New(rand.NewSource(seed))
	f := make([]byte, 8192)
	for i := range f {
		f[i] = byte('a' + rng.Intn(26))
	}
	return f
}

// encodeValue builds a valueSize-byte value: "<row>|<writer>|<seq>|" then
// filler chosen by row and seq.
func (f filler) encodeValue(row int, v version) []byte {
	b := make([]byte, 0, valueSize)
	b = fmt.Appendf(b, "%08d|%03d|%010d|", row, v.writer, v.seq)
	off := (row*131 + v.seq*17) % (len(f) - valueSize)
	return append(b, f[off:off+valueSize-len(b)]...)
}

// decodeValue parses the row and version a value carries.
func decodeValue(b []byte) (int, version, error) {
	if len(b) != valueSize || b[8] != '|' || b[12] != '|' || b[23] != '|' {
		return 0, version{}, fmt.Errorf("malformed value %.24q", b)
	}
	row, err1 := strconv.Atoi(string(b[0:8]))
	w, err2 := strconv.Atoi(string(b[9:12]))
	seq, err3 := strconv.Atoi(string(b[13:23]))
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, version{}, fmt.Errorf("malformed value %.24q", b)
	}
	return row, version{writer: w, seq: seq}, nil
}

// ack is the newest acknowledged write of one row.
type ack struct {
	cts kv.Timestamp // 0: never written (absent row)
	v   version
}

// ledger records acknowledged writes: per row the newest one, and per
// writer the commit timestamp of each of its sequences, so a read that
// returns another writer's version can be ordered against the expected one.
type ledger struct {
	locks [64]sync.Mutex
	rows  []ack

	wmu     sync.Mutex
	writers map[int][]kv.Timestamp // writer -> commit ts by seq (0 = unknown)
}

func newLedger(rows int) *ledger {
	return &ledger{rows: make([]ack, rows), writers: map[int][]kv.Timestamp{}}
}

// acked records that writer v committed the given rows at cts.
func (l *ledger) acked(v version, cts kv.Timestamp, rows []int) {
	l.wmu.Lock()
	log := l.writers[v.writer]
	for len(log) <= v.seq {
		log = append(log, 0)
	}
	if cts > log[v.seq] {
		log[v.seq] = cts
	}
	l.writers[v.writer] = log
	l.wmu.Unlock()
	for _, r := range rows {
		mu := &l.locks[r%len(l.locks)]
		mu.Lock()
		if cts > l.rows[r].cts {
			l.rows[r] = ack{cts: cts, v: v}
		}
		mu.Unlock()
	}
}

// expect returns the newest acknowledged write of row.
func (l *ledger) expect(row int) ack {
	mu := &l.locks[row%len(l.locks)]
	mu.Lock()
	defer mu.Unlock()
	return l.rows[row]
}

// commitTS returns the commit timestamp of a writer's sequence, 0 when the
// write was never acknowledged (failed, indeterminate or still in flight).
func (l *ledger) commitTS(v version) kv.Timestamp {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	log := l.writers[v.writer]
	if v.seq < len(log) {
		return log[v.seq]
	}
	return 0
}

// checkValue verifies one read of row against the write expected before the
// read began. found reports whether the read returned a value.
func (l *ledger) checkValue(row int, val []byte, found bool, want ack) error {
	if want.cts == 0 {
		if found {
			return fmt.Errorf("row %d: absent row read present", row)
		}
		return nil
	}
	if !found {
		return fmt.Errorf("row %d: acknowledged row read absent", row)
	}
	gotRow, got, err := decodeValue(val)
	if err != nil {
		return fmt.Errorf("row %d: %w", row, err)
	}
	if gotRow != row {
		return fmt.Errorf("row %d: value belongs to row %d", row, gotRow)
	}
	if got == want.v {
		return nil
	}
	if got.writer == want.v.writer && got.seq < want.v.seq {
		return fmt.Errorf("row %d: stale version %v, acknowledged %v", row, got, want.v)
	}
	if cts := l.commitTS(got); cts != 0 && cts < want.cts {
		return fmt.Errorf("row %d: stale version %v (ts %d), acknowledged %v (ts %d)", row, got, cts, want.v, want.cts)
	}
	return nil
}

// scanned is one row a scan returned.
type scanned struct {
	key kv.Key
	val []byte
}

// checkScan verifies a scan result: keys strictly increasing (no duplicate,
// no disorder), exactly the rows in want, and every value checked against
// the ledger state captured before the scan began (expects[i] for want[i]).
func (l *ledger) checkScan(got []scanned, want []int, expects []ack) error {
	for i := 1; i < len(got); i++ {
		switch c := got[i-1].key.Compare(got[i].key); {
		case c == 0:
			return fmt.Errorf("scan: duplicate row %s", got[i].key)
		case c > 0:
			return fmt.Errorf("scan: row %s after %s (out of order)", got[i].key, got[i-1].key)
		}
	}
	j := 0
	for i, row := range want {
		k := rowKey(row)
		if j < len(got) && got[j].key < k {
			return fmt.Errorf("scan: unexpected row %s", got[j].key)
		}
		if j == len(got) || got[j].key != k {
			return fmt.Errorf("scan: missing row %s", k)
		}
		if err := l.checkValue(row, got[j].val, true, expects[i]); err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		j++
	}
	if j < len(got) {
		return fmt.Errorf("scan: unexpected row %s", got[j].key)
	}
	return nil
}
