package txkv_test

import (
	"context"
	"fmt"
	"time"

	"txkv"
)

// Example demonstrates the managed transactional workflow: open a cluster,
// create a table, run a read-modify-write Update closure (the middleware
// owns begin/commit/conflict-retry), and read it back through a read-only
// View.
func Example() {
	cluster, err := txkv.Open(txkv.Config{
		Servers:           2,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()

	if err := cluster.CreateTable("accounts", nil); err != nil {
		panic(err)
	}
	client, err := cluster.NewClient("example")
	if err != nil {
		panic(err)
	}
	defer client.Stop()

	ctx := context.Background()
	if _, err := client.Update(ctx, func(txn *txkv.Txn) error {
		return txn.Put(ctx, "accounts", "alice", "balance", []byte("100"))
	}); err != nil {
		panic(err)
	}

	_ = client.View(ctx, func(txn *txkv.Txn) error {
		v, ok, _ := txn.Get(ctx, "accounts", "alice", "balance")
		fmt.Println(ok, string(v))
		return nil
	})
	// Output: true 100
}

// Example_failureRecovery shows the paper's durability guarantee: a server
// crash after an acknowledged commit loses nothing — the recovery
// middleware replays the at-risk write-sets from the transaction manager's
// log.
func Example_failureRecovery() {
	cluster, err := txkv.Open(txkv.Config{
		Servers:                2,
		HeartbeatInterval:      50 * time.Millisecond,
		MasterHeartbeatTimeout: 200 * time.Millisecond,
		WALSyncInterval:        0, // the default: asynchronous WAL sync every 50ms
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()

	_ = cluster.CreateTable("orders", nil)
	client, _ := cluster.NewClient("app")
	defer client.Stop()

	ctx := context.Background()
	if _, err := client.Update(ctx, func(txn *txkv.Txn) error {
		return txn.Put(ctx, "orders", "o-1", "status", []byte("PAID"))
	}); err != nil {
		panic(err)
	}

	// Kill the server hosting the data before anything was persisted.
	_ = cluster.CrashServer(cluster.ServerIDs()[0])

	// The committed order survives (retry until fail-over completes).
	deadline := time.Now().Add(15 * time.Second)
	for {
		var (
			v  []byte
			ok bool
		)
		err := client.View(ctx, func(txn *txkv.Txn) error {
			var err error
			v, ok, err = txn.Get(ctx, "orders", "o-1", "status")
			return err
		})
		if err == nil && ok {
			fmt.Println(string(v))
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("lost")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Output: PAID
}

// Example_remoteCluster connects to a cluster served in another process
// over the wire protocol (PROTOCOL.md) and uses the identical Client API:
// reads and scans go straight to the owning region servers, transactions
// run through the serving process's gateway, so its recovery middleware
// protects the post-commit flush exactly as for local clients. The serving
// side is either a Cluster that called ServeRPC, or the txkvd binary:
//
//	txkvd -role master -listen 127.0.0.1:7420 &
//	txkvd -role region -id rs1 -master 127.0.0.1:7420 &
//	txkvd -role region -id rs2 -master 127.0.0.1:7420 &
//
// (No Output comment: the example needs that live deployment to run.)
func Example_remoteCluster() {
	remote, err := txkv.Connect("127.0.0.1:7420")
	if err != nil {
		panic(err)
	}
	defer remote.Close()

	if err := remote.CreateTable("accounts", nil); err != nil {
		panic(err)
	}
	client, err := remote.NewClient("app-2")
	if err != nil {
		panic(err)
	}
	defer client.Stop()

	ctx := context.Background()
	if _, err := client.Update(ctx, func(txn *txkv.Txn) error {
		return txn.Put(ctx, "accounts", "bob", "balance", []byte("250"))
	}); err != nil {
		panic(err)
	}
	_ = client.View(ctx, func(txn *txkv.Txn) error {
		v, ok, _ := txn.Get(ctx, "accounts", "bob", "balance")
		fmt.Println(ok, string(v))
		return nil
	})
}

// Example_changeStreams keeps a read-through cache coherent with a change
// stream: committed writes to the watched table arrive in commit order,
// exactly once, so applying events in order *is* cache coherence. The
// opaque token checkpoints the stream position across disconnection —
// WatchResume continues exactly after the last applied commit, so nothing
// written while the cache was offline is missed.
func Example_changeStreams() {
	cluster, err := txkv.Open(txkv.Config{Servers: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()
	_ = cluster.CreateTable("accounts", nil)
	client, _ := cluster.NewClient("cache")
	defer client.Stop()
	ctx := context.Background()

	cache := map[string]string{}
	apply := func(ws *txkv.WatchStream, events int) {
		for n := 0; n < events; {
			b, err := ws.NextBatch(ctx)
			if err != nil {
				panic(err)
			}
			for _, ev := range b.Events {
				if ev.Delete {
					delete(cache, string(ev.Key))
				} else {
					cache[string(ev.Key)] = string(ev.Value)
				}
				n++
			}
		}
	}
	put := func(row, val string) {
		if _, err := client.Update(ctx, func(txn *txkv.Txn) error {
			return txn.Put(ctx, "accounts", txkv.Key(row), "balance", []byte(val))
		}); err != nil {
			panic(err)
		}
	}

	ws, err := client.Watch(ctx, "accounts", txkv.KeyRange{}, 0)
	if err != nil {
		panic(err)
	}
	put("alice", "100")
	apply(ws, 1)
	fmt.Println("live:", cache["alice"])

	// Checkpoint the position and disconnect; writes keep happening.
	token := ws.Token()
	ws.Close()
	put("alice", "250")
	put("bob", "80")

	// Resume from the checkpoint: the missed commits replay in order.
	ws, err = client.WatchResume(ctx, token)
	if err != nil {
		panic(err)
	}
	defer ws.Close()
	apply(ws, 2)
	fmt.Println("resumed:", cache["alice"], cache["bob"])
	// Output:
	// live: 100
	// resumed: 250 80
}

// Example_timeTravel pins a read-only snapshot at an old commit timestamp:
// the transaction manager registers the pin, so the version-GC horizon
// cannot overrun it even while compaction runs.
func Example_timeTravel() {
	cluster, err := txkv.Open(txkv.Config{Servers: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()
	_ = cluster.CreateTable("t", nil)
	client, _ := cluster.NewClient("app")
	defer client.Stop()

	ctx := context.Background()
	old, _ := client.Update(ctx, func(txn *txkv.Txn) error {
		return txn.Put(ctx, "t", "k", "f", []byte("v1"))
	})
	if _, err := client.Update(ctx, func(txn *txkv.Txn) error {
		return txn.Put(ctx, "t", "k", "f", []byte("v2"))
	}); err != nil {
		panic(err)
	}

	_ = client.ViewAt(ctx, old, func(txn *txkv.Txn) error {
		v, _, _ := txn.Get(ctx, "t", "k", "f")
		fmt.Println("then:", string(v))
		return nil
	})
	_ = client.View(ctx, func(txn *txkv.Txn) error {
		v, _, _ := txn.Get(ctx, "t", "k", "f")
		fmt.Println("now:", string(v))
		return nil
	})
	// Output:
	// then: v1
	// now: v2
}
