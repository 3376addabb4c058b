// Root micro-benchmarks of the load-bearing substrates: group commit, log
// append, the write-set codec and the workload generator. The paper's
// figures are shape tests in paper_test.go; end-to-end latency and
// throughput are perfbench's.
package txkv_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"txkv/internal/kv"
	"txkv/internal/txlog"
	"txkv/internal/txmgr"
	"txkv/internal/ycsb"
)

// BenchmarkTxnCommitGroupCommit measures raw TM commit latency under
// concurrency (group commit amortizes the log fsync).
func BenchmarkTxnCommitGroupCommit(b *testing.B) {
	log := txlog.New(txlog.Config{SyncLatency: 500 * time.Microsecond})
	defer log.Close()
	tm := txmgr.New(log)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h := tm.BeginLatest("bench")
			u := []kv.Update{{Table: "t", Row: kv.Key(fmt.Sprintf("r%d", i)), Column: "c", Value: []byte("v")}}
			if _, err := tm.Commit(h, u); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkLogAppend measures recovery-log append throughput.
func BenchmarkLogAppend(b *testing.B) {
	log := txlog.New(txlog.Config{})
	defer log.Close()
	ws := kv.WriteSet{TxnID: 1, ClientID: "c", Updates: []kv.Update{
		{Table: "t", Row: "row", Column: "c", Value: make([]byte, 100)},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.CommitTS = kv.Timestamp(i + 1)
		if err := log.Append(ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSetCodec measures the write-set wire codec.
func BenchmarkWriteSetCodec(b *testing.B) {
	ws := kv.WriteSet{TxnID: 7, ClientID: "client-1", CommitTS: 42}
	for i := 0; i < 10; i++ {
		ws.Updates = append(ws.Updates, kv.Update{
			Table: "usertable", Row: ycsb.RowKey(uint64(i)), Column: "field0", Value: make([]byte, 100),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := kv.EncodeWriteSet(ws)
		if _, err := kv.DecodeWriteSet(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZipfian measures the workload generator.
func BenchmarkZipfian(b *testing.B) {
	g := ycsb.NewScrambledZipfian(500000)
	rng := newBenchRand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(rng)
	}
}

func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
