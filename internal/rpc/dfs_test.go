package rpc

// remoteWriter tests: the client half of the DFS surface buffers appends
// in the writer's process and ships them at Sync (or at the buffer bound),
// keeping the FileWriter contract of dfs.Writer over the wire.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"txkv/internal/dfs"
	"txkv/internal/wal"
)

// dfsFixture is a DFS service on loopback plus a RemoteFS client, with
// per-method call counters on the service side.
type dfsFixture struct {
	fs      *dfs.FS
	remote  *RemoteFS
	pool    *Pool
	addr    string
	appends atomic.Int64
	syncs   atomic.Int64
}

func startDFS(t *testing.T) *dfsFixture {
	t.Helper()
	f := &dfsFixture{fs: dfs.New(dfs.Config{})}
	s := NewServer(nil)
	RegisterDFSService(s, f.fs)
	count := func(method byte, n *atomic.Int64) {
		h := s.handlers[method]
		s.Handle(method, func(ctx context.Context, sess *Session, body []byte) ([]byte, error) {
			n.Add(1)
			return h(ctx, sess, body)
		})
	}
	count(FAppend, &f.appends)
	count(FSync, &f.syncs)
	f.addr = startTestServer(t, s)
	f.pool = NewPool(nil)
	t.Cleanup(f.pool.Close)
	f.remote = NewRemoteFS(f.pool, f.addr)
	return f
}

// dropConn closes the pool's connection to the service, as a network
// failure would; the service abandons the session's writers.
func (f *dfsFixture) dropConn() {
	f.pool.mu.Lock()
	c := f.pool.conns[f.addr]
	f.pool.mu.Unlock()
	c.Close()
}

func (f *dfsFixture) create(t *testing.T, path string) dfs.FileWriter {
	t.Helper()
	w, err := f.remote.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (f *dfsFixture) contents(t *testing.T, path string) []byte {
	t.Helper()
	data, err := f.fs.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRemoteWriterBuffersUntilSync(t *testing.T) {
	f := startDFS(t)
	w := f.create(t, "/f")
	rec := bytes.Repeat([]byte("x"), 1000)
	var want []byte
	for len(want)+len(rec) < remoteShipBytes {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec...)
	}
	if n := f.appends.Load(); n != 0 {
		t.Fatalf("%d FAppend calls below the bound, want 0", n)
	}
	if got := w.Buffered(); got != len(want) {
		t.Fatalf("Buffered = %d, want %d", got, len(want))
	}

	// The append that reaches the bound ships, without a sync; the shipped
	// bytes still count as buffered.
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	want = append(want, rec...)
	if f.appends.Load() == 0 || f.syncs.Load() != 0 {
		t.Fatalf("at the bound: %d FAppend, %d FSync; want >0 and 0", f.appends.Load(), f.syncs.Load())
	}
	if got := w.Buffered(); got != len(want) {
		t.Fatalf("Buffered after ship = %d, want %d", got, len(want))
	}
	if n := len(f.contents(t, "/f")); n != 0 {
		t.Fatalf("%d bytes durable before Sync, want 0", n)
	}

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Buffered(); got != 0 {
		t.Fatalf("Buffered after Sync = %d, want 0", got)
	}
	if !bytes.Equal(f.contents(t, "/f"), want) {
		t.Fatal("synced contents differ from the appends")
	}

	// A sync with nothing appended since the last one is free.
	syncs := f.syncs.Load()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.syncs.Load() != syncs {
		t.Fatal("idle Sync made a round trip")
	}
}

func TestRemoteWriterLargerThanFrame(t *testing.T) {
	f := startDFS(t)
	w := f.create(t, "/big")
	var want []byte
	appendRecs := func(n int) {
		rec := make([]byte, 96<<10)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(rec, uint64(len(want))) // order shows in the bytes
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec...)
		}
	}
	appendRecs(8) // several ships at the bound
	// One append larger than a frame goes out in several FAppend chunks.
	huge := bytes.Repeat([]byte{0xAB}, MaxFrameBytes+1)
	if err := w.Append(huge); err != nil {
		t.Fatal(err)
	}
	want = append(want, huge...)
	appendRecs(2)
	if err := w.Sync(); err != nil {
		t.Fatalf("sync of %d bytes: %v", len(want), err)
	}
	if !bytes.Equal(f.contents(t, "/big"), want) {
		t.Fatal("synced contents differ from the appends")
	}
}

func TestRemoteWriterConcurrentAppendSync(t *testing.T) {
	f := startDFS(t)
	ww, err := wal.Create(f.remote, "/wal")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, records = 4, 300
	pad := bytes.Repeat([]byte("p"), 2000) // ~1.2 MiB in all: several bound ships
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				rec := append([]byte(fmt.Sprintf("%d/%d/", g, i)), pad[:i*7%len(pad)]...)
				if err := ww.Append(rec); err != nil {
					errs <- err
					return
				}
				if i%10 == g {
					if err := ww.Sync(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ww.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.DecodeAll(f.contents(t, "/wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*records {
		t.Fatalf("decoded %d records, want %d", len(recs), goroutines*records)
	}
	next := make([]int, goroutines)
	for _, r := range recs {
		var g, i int
		if _, err := fmt.Sscanf(string(r), "%d/%d/", &g, &i); err != nil {
			t.Fatalf("record %q: %v", r[:min(len(r), 16)], err)
		}
		if i != next[g] {
			t.Fatalf("goroutine %d: record %d after %d", g, i, next[g]-1)
		}
		next[g]++
	}
}

func TestRemoteWriterConnectionLossKeepsSyncedPrefix(t *testing.T) {
	f := startDFS(t)
	w := f.create(t, "/f")
	if err := w.Append([]byte("synced|")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	tail := []byte("never-synced")
	if err := w.Append(tail); err != nil {
		t.Fatal(err)
	}
	f.dropConn()

	// The service abandoned the writer with its session: the sync fails
	// and the failed ship's bytes are back in the buffer.
	err := w.Sync()
	if err == nil {
		t.Fatal("Sync after connection loss succeeded")
	}
	if got := w.Buffered(); got != len(tail) {
		t.Fatalf("Buffered after failed Sync = %d, want %d", got, len(tail))
	}
	if aerr := w.Append([]byte("x")); aerr == nil || aerr.Error() != err.Error() {
		t.Fatalf("Append after failed Sync = %v, want %v", aerr, err)
	}
	if got := string(f.contents(t, "/f")); got != "synced|" {
		t.Fatalf("durable contents %q, want only the synced prefix", got)
	}
}

func TestRemoteWriterCloseDropsUnsyncedTail(t *testing.T) {
	f := startDFS(t)
	w := f.create(t, "/f")
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Buffered(); got != 0 {
		t.Fatalf("Buffered after Close = %d, want 0", got)
	}
	if err := w.Append([]byte("late")); !errors.Is(err, dfs.ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, dfs.ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if got := string(f.contents(t, "/f")); got != "kept" {
		t.Fatalf("durable contents %q, want %q", got, "kept")
	}
}
