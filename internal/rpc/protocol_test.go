package rpc

// Round-trips every message type documented in PROTOCOL.md through its
// encoder and decoder. This test is PROTOCOL.md's enforcement: a codec
// change that isn't reflected here (and in the document) fails CI, and a
// message type documented but not round-tripped here should be treated as
// a review error. Keep the method list in sync with wire.go's constants.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"txkv/internal/dfs"
	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/txmgr"
	"txkv/internal/watch"
)

// testedMethods records which method codes the round-trip cases cover;
// TestProtocolCoversEveryMethod fails if any wire constant is missing.
var testedMethods = map[byte]bool{}

func covers(ms ...byte) {
	for _, m := range ms {
		testedMethods[m] = true
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	sampleKVs := []kv.KeyValue{
		{Cell: kv.Cell{Row: "row-a", Column: "c1", TS: 7}, Value: []byte("v1")},
		{Cell: kv.Cell{Row: "row-b", Column: "c2", TS: 9}, Tombstone: true},
	}
	sampleInfo := kvstore.RegionInfo{ID: "t.r1", Table: "t", Range: kv.KeyRange{Start: "a", End: "m"}}
	sampleUpdates := []kv.Update{
		{Table: "t", Row: "r", Column: "c", Value: []byte("x")},
		{Table: "t", Row: "r2", Column: "c", Tombstone: true},
	}

	t.Run("string-bodied messages", func(t *testing.T) {
		covers(MLocateAll, MTableRegions, RMarkOnline, RCloseRegion, RCloseFlush,
			FCreate, FDelete, FExists, FList, FSize, FReadAll)
		for _, s := range []string{"", "accounts", "wal/rs-1.00000001.log"} {
			got, err := decStringMsg(encStringMsg(s))
			if err != nil || got != s {
				t.Fatalf("string %q: got %q, %v", s, got, err)
			}
		}
	})

	t.Run("LocateAll response", func(t *testing.T) {
		locs := []WireLocation{
			{Info: sampleInfo, Addr: "127.0.0.1:4001", FollowerAddrs: []string{"127.0.0.1:4002", "127.0.0.1:4003"}},
			{Info: kvstore.RegionInfo{ID: "t.r2", Table: "t", Range: kv.KeyRange{Start: "m"}}, Addr: ""},
		}
		got, err := decLocateAllResp(encLocateAllResp(locs))
		if err != nil || !reflect.DeepEqual(got, locs) {
			t.Fatalf("got %+v, %v", got, err)
		}
	})

	t.Run("CreateTable request", func(t *testing.T) {
		covers(MCreateTable)
		name, splits, err := decCreateTableReq(encCreateTableReq("t", []kv.Key{"g", "p"}))
		if err != nil || name != "t" || !reflect.DeepEqual(splits, []kv.Key{"g", "p"}) {
			t.Fatalf("got %q %v, %v", name, splits, err)
		}
	})

	t.Run("SplitRegion request", func(t *testing.T) {
		covers(MSplitRegion)
		id, key, err := decSplitRegionReq(encSplitRegionReq("t.r1", "k"))
		if err != nil || id != "t.r1" || key != "k" {
			t.Fatalf("got %q %q, %v", id, key, err)
		}
	})

	t.Run("TableRegions response", func(t *testing.T) {
		infos := []kvstore.RegionInfo{sampleInfo}
		got, err := decRegionInfosResp(encRegionInfosResp(infos))
		if err != nil || !reflect.DeepEqual(got, infos) {
			t.Fatalf("got %+v, %v", got, err)
		}
	})

	t.Run("Register request", func(t *testing.T) {
		covers(MRegister)
		id, addr, err := decRegisterReq(encRegisterReq("rs-1", "10.0.0.2:4001"))
		if err != nil || id != "rs-1" || addr != "10.0.0.2:4001" {
			t.Fatalf("got %q %q, %v", id, addr, err)
		}
	})

	t.Run("Heartbeat", func(t *testing.T) {
		covers(MHeartbeat)
		id, tp, err := decHeartbeatReq(encHeartbeatReq("rs-1", 1<<40))
		if err != nil || id != "rs-1" || tp != 1<<40 {
			t.Fatalf("req: got %q %d, %v", id, tp, err)
		}
		tf, err := decHeartbeatResp(encHeartbeatResp(77))
		if err != nil || tf != 77 {
			t.Fatalf("resp: got %d, %v", tf, err)
		}
		// tp and tf were appended to a serverID-only request and an empty
		// response: an older peer's bodies decode with them as 0.
		if id, tp, err := decHeartbeatReq(encStringMsg("rs-1")); err != nil || id != "rs-1" || tp != 0 {
			t.Fatalf("serverID-only req: got %q %d, %v", id, tp, err)
		}
		if tf, err := decHeartbeatResp(nil); err != nil || tf != 0 {
			t.Fatalf("empty resp: got %d, %v", tf, err)
		}
	})

	t.Run("Get", func(t *testing.T) {
		covers(RGet)
		table, row, col, maxTS, err := decGetReq(encGetReq("t", "r", "c", 42))
		if err != nil || table != "t" || row != "r" || col != "c" || maxTS != 42 {
			t.Fatalf("req: got %q %q %q %d, %v", table, row, col, maxTS, err)
		}
		e, found, err := decGetResp(encGetResp(sampleKVs[0], true))
		if err != nil || !found || !reflect.DeepEqual(e, sampleKVs[0]) {
			t.Fatalf("resp found: got %+v %v, %v", e, found, err)
		}
		_, found, err = decGetResp(encGetResp(kv.KeyValue{}, false))
		if err != nil || found {
			t.Fatalf("resp missing: found=%v, %v", found, err)
		}
	})

	t.Run("GetBatch", func(t *testing.T) {
		covers(RGetBatch)
		keys := []kv.CellKey{{Row: "r1", Column: "c"}, {Row: "r2", Column: "d"}}
		table, gotKeys, maxTS, err := decGetBatchReq(encGetBatchReq("t", keys, 42))
		if err != nil || table != "t" || maxTS != 42 || !reflect.DeepEqual(gotKeys, keys) {
			t.Fatalf("req: got %q %v %d, %v", table, gotKeys, maxTS, err)
		}
		kvs := []kv.KeyValue{sampleKVs[0], {}}
		found := []bool{true, false}
		gotKVs, gotFound, err := decGetBatchResp(encGetBatchResp(kvs, found))
		if err != nil || !reflect.DeepEqual(gotFound, found) || !reflect.DeepEqual(gotKVs[0], kvs[0]) {
			t.Fatalf("resp: got %+v %v, %v", gotKVs, gotFound, err)
		}
	})

	t.Run("ScanBatch", func(t *testing.T) {
		covers(RScanBatch)
		req := kvstore.ScanRequest{
			Table: "t", Range: kv.KeyRange{Start: "a", End: "z"}, MaxTS: 99,
			Resume: kv.CellKey{Row: "m", Column: "c"}, HasResume: true,
			Columns: []string{"c", "d"}, KeysOnly: true, Batch: 128,
			AllowFollower: true,
		}
		got, err := decScanReq(encScanReq(req))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("req: got %+v, %v", got, err)
		}
		resp := kvstore.ScanResponse{KVs: sampleKVs, More: true, RegionEnd: "q"}
		gotResp, err := decScanResp(encScanResp(resp))
		if err != nil || !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("resp: got %+v, %v", gotResp, err)
		}
	})

	t.Run("Apply", func(t *testing.T) {
		covers(RApply)
		ws := kv.WriteSet{TxnID: 7, ClientID: "c1", CommitTS: 101, Updates: sampleUpdates}
		gotWS, piggy, hasPiggy, err := decApplyReq(encApplyReq(ws, 55, true))
		if err != nil || piggy != 55 || !hasPiggy || !reflect.DeepEqual(gotWS, ws) {
			t.Fatalf("got %+v %d %v, %v", gotWS, piggy, hasPiggy, err)
		}
	})

	t.Run("OpenRegion", func(t *testing.T) {
		covers(ROpenRegion)
		edits := []kvstore.WALEntry{{RegionID: "t.r1", KVs: sampleKVs}}
		info, files, hasFiles, gotEdits, recovering, err := decOpenRegionReq(
			encOpenRegionReq(sampleInfo, []string{"/f1", "/f2"}, true, edits, true))
		if err != nil || !reflect.DeepEqual(info, sampleInfo) || !hasFiles || !recovering ||
			!reflect.DeepEqual(files, []string{"/f1", "/f2"}) || !reflect.DeepEqual(gotEdits, edits) {
			t.Fatalf("got %+v %v %v %+v %v, %v", info, files, hasFiles, gotEdits, recovering, err)
		}
	})

	t.Run("SyncWAL and other empty bodies", func(t *testing.T) {
		covers(RSyncWAL) // empty request body, empty response body
	})

	t.Run("Begin", func(t *testing.T) {
		covers(TBegin)
		for _, release := range [][]uint64{nil, {7}, {8, 1 << 40, 9}} {
			clientID, readOnly, snapTS, mode, got, err := decBeginReq(encBeginReq("c1", true, 42, 3, release))
			if err != nil || clientID != "c1" || !readOnly || snapTS != 42 || mode != 3 || !reflect.DeepEqual(got, release) {
				t.Fatalf("req with release %v: got %q %v %d %d %v, %v", release, clientID, readOnly, snapTS, mode, got, err)
			}
		}
		// A body without the release field (an older sender) decodes as
		// an empty list.
		old := appendUvarint(appendUvarint(appendBool(appendString(nil, "c1"), false), 0), 1)
		if clientID, readOnly, snapTS, mode, release, err := decBeginReq(old); err != nil || clientID != "c1" ||
			readOnly || snapTS != 0 || mode != 1 || len(release) != 0 {
			t.Fatalf("req without release: got %q %v %d %d %v, %v", clientID, readOnly, snapTS, mode, release, err)
		}
		// A release list longer than its body is malformed.
		if _, _, _, _, _, err := decBeginReq(appendUvarint(old, 3)); err == nil {
			t.Fatal("truncated release list decoded without error")
		}
		handle, startTS, err := decBeginResp(encBeginResp(9, 100))
		if err != nil || handle != 9 || startTS != 100 {
			t.Fatalf("resp: got %d %d, %v", handle, startTS, err)
		}
	})

	t.Run("Commit", func(t *testing.T) {
		covers(TCommit)
		handle, updates, wait, err := decCommitReq(encCommitReq(9, sampleUpdates, true))
		if err != nil || handle != 9 || !wait || !reflect.DeepEqual(updates, sampleUpdates) {
			t.Fatalf("req: got %d %v %v, %v", handle, updates, wait, err)
		}
		cts, code, msg, err := decCommitResp(encCommitResp(101, CodeConflict, "boom"))
		if err != nil || cts != 101 || code != CodeConflict || msg != "boom" {
			t.Fatalf("resp: got %d %d %q, %v", cts, code, msg, err)
		}
	})

	t.Run("BeginCommit", func(t *testing.T) {
		covers(TBeginCommit)
		clientID, mode, updates, wait, err := decBeginCommitReq(encBeginCommitReq("c1", 2, sampleUpdates, true))
		if err != nil || clientID != "c1" || mode != 2 || !wait || !reflect.DeepEqual(updates, sampleUpdates) {
			t.Fatalf("req: got %q %d %v %v, %v", clientID, mode, updates, wait, err)
		}
		startTS, cts, code, msg, err := decBeginCommitResp(encBeginCommitResp(100, 101, CodeConflict, "boom"))
		if err != nil || startTS != 100 || cts != 101 || code != CodeConflict || msg != "boom" {
			t.Fatalf("resp: got %d %d %d %q, %v", startTS, cts, code, msg, err)
		}
	})

	t.Run("handle-bodied messages", func(t *testing.T) {
		covers(TAbort, FSync, FClose, FAbandon)
		got, err := decHandleMsg(encHandleMsg(1 << 40))
		if err != nil || got != 1<<40 {
			t.Fatalf("got %d, %v", got, err)
		}
	})

	t.Run("FAppend", func(t *testing.T) {
		covers(FAppend)
		id, p, err := decFAppendReq(encFAppendReq(3, []byte{0, 1, 2}))
		if err != nil || id != 3 || !reflect.DeepEqual(p, []byte{0, 1, 2}) {
			t.Fatalf("got %d %v, %v", id, p, err)
		}
	})

	t.Run("FRename", func(t *testing.T) {
		covers(FRename)
		o, n, err := decFRenameReq(encFRenameReq("/a", "/b"))
		if err != nil || o != "/a" || n != "/b" {
			t.Fatalf("got %q %q, %v", o, n, err)
		}
	})

	t.Run("FReadRange", func(t *testing.T) {
		covers(FReadRange)
		path, off, n, err := decFReadRangeReq(encFReadRangeReq("/f", 1024, 64))
		if err != nil || path != "/f" || off != 1024 || n != 64 {
			t.Fatalf("got %q %d %d, %v", path, off, n, err)
		}
	})

	t.Run("bytes and bool and strings bodies", func(t *testing.T) {
		p, err := decBytesMsg(encBytesMsg([]byte("data")))
		if err != nil || string(p) != "data" {
			t.Fatalf("bytes: got %q, %v", p, err)
		}
		b, err := decBoolMsg(encBoolMsg(true))
		if err != nil || !b {
			t.Fatalf("bool: got %v, %v", b, err)
		}
		ss, err := decStringsMsg(encStringsMsg([]string{"x", "y"}))
		if err != nil || !reflect.DeepEqual(ss, []string{"x", "y"}) {
			t.Fatalf("strings: got %v, %v", ss, err)
		}
	})

	t.Run("Watch", func(t *testing.T) {
		covers(WWatch, WCancel)
		table, rng, from, window, owner, err := decWatchReq(encWatchReq("t", kv.KeyRange{Start: "a", End: "m"}, 42, 64, "app-1"))
		if err != nil || table != "t" || rng.Start != "a" || rng.End != "m" || from != 42 || window != 64 || owner != "app-1" {
			t.Fatalf("req: got %q %v %d %d %q, %v", table, rng, from, window, owner, err)
		}
		// WCancel carries the shared handle body (covered above too).
		id, err := decHandleMsg(encHandleMsg(7))
		if err != nil || id != 7 {
			t.Fatalf("cancel: got %d, %v", id, err)
		}
	})

	t.Run("Watch batch stream frames", func(t *testing.T) {
		in := watch.ChangeBatch{
			CommitTS: 99,
			Pos:      99,
			Events: []watch.ChangeEvent{
				{Table: "t", Key: "r1", Column: "c", Value: []byte("v"), CommitTS: 99},
				{Table: "t", Key: "r2", Column: "c", Delete: true, CommitTS: 99},
			},
		}
		got, err := decWatchBatch(encWatchBatch(in), "t")
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v, %v", got, err)
		}
		// Progress-only batches: no events, position only.
		prog, err := decWatchBatch(encWatchBatch(watch.ChangeBatch{Pos: 120}), "t")
		if err != nil || len(prog.Events) != 0 || prog.Pos != 120 || prog.CommitTS != 0 {
			t.Fatalf("progress: got %+v, %v", prog, err)
		}
	})

	t.Run("WCredit", func(t *testing.T) {
		covers(WCredit)
		id, n, err := decWatchCreditReq(encWatchCreditReq(5, 32))
		if err != nil || id != 5 || n != 32 {
			t.Fatalf("got %d %d, %v", id, n, err)
		}
	})

	t.Run("SetReplication", func(t *testing.T) {
		covers(RSetReplication)
		targets := []kvstore.ReplicaTarget{{ServerID: "rs-2", Addr: "127.0.0.1:4002"}, {ServerID: "rs-3"}}
		id, epoch, gotTargets, ttl, err := decSetReplicationReq(encSetReplicationReq("t.r1", 7, targets, 250*time.Millisecond))
		if err != nil || id != "t.r1" || epoch != 7 || ttl != 250*time.Millisecond || !reflect.DeepEqual(gotTargets, targets) {
			t.Fatalf("got %q %d %v %v, %v", id, epoch, gotTargets, ttl, err)
		}
	})

	t.Run("AppendEntries", func(t *testing.T) {
		covers(RAppendEntries)
		entries := []kvstore.ReplEntry{{Seq: 11, KVs: sampleKVs}, {Seq: 12}}
		id, epoch, gotEntries, tipSeq, safeTS, err := decAppendEntriesReq(encAppendEntriesReq("t.r1", 7, entries, 12, 99))
		if err != nil || id != "t.r1" || epoch != 7 || tipSeq != 12 || safeTS != 99 || !reflect.DeepEqual(gotEntries, entries) {
			t.Fatalf("req: got %q %d %v %d %d, %v", id, epoch, gotEntries, tipSeq, safeTS, err)
		}
		// Heartbeat: no entries.
		_, _, gotEntries, _, _, err = decAppendEntriesReq(encAppendEntriesReq("t.r1", 7, nil, 12, 99))
		if err != nil || len(gotEntries) != 0 {
			t.Fatalf("heartbeat req: got %v, %v", gotEntries, err)
		}
		last, code, msg, err := decAppendEntriesResp(encAppendEntriesResp(12, CodeReplicaGap, "gap"))
		if err != nil || last != 12 || code != CodeReplicaGap || msg != "gap" {
			t.Fatalf("resp: got %d %d %q, %v", last, code, msg, err)
		}
	})

	t.Run("Promote", func(t *testing.T) {
		covers(RPromote)
		id, epoch, ttl, err := decPromoteReq(encPromoteReq("t.r1", 8, time.Second))
		if err != nil || id != "t.r1" || epoch != 8 || ttl != time.Second {
			t.Fatalf("got %q %d %v, %v", id, epoch, ttl, err)
		}
	})

	t.Run("ReplicaPos", func(t *testing.T) {
		covers(RReplicaPos) // request is the shared string body
		pos := kvstore.ReplicaPosition{Epoch: 7, LastSeq: 42, Checkpoint: 30, FrontierTS: 99}
		got, err := decReplicaPos(encReplicaPos(pos))
		if err != nil || got != pos {
			t.Fatalf("got %+v, %v", got, err)
		}
	})

	t.Run("OpenFollower", func(t *testing.T) {
		covers(ROpenFollower)
		info, epoch, err := decOpenFollowerReq(encOpenFollowerReq(sampleInfo, 7))
		if err != nil || epoch != 7 || !reflect.DeepEqual(info, sampleInfo) {
			t.Fatalf("got %+v %d, %v", info, epoch, err)
		}
	})

	t.Run("Checkpoint", func(t *testing.T) {
		covers(RCheckpoint)
		id, epoch, seq, err := decCheckpointReq(encCheckpointReq("t.r1", 7, 30))
		if err != nil || id != "t.r1" || epoch != 7 || seq != 30 {
			t.Fatalf("got %q %d %d, %v", id, epoch, seq, err)
		}
	})

	t.Run("Lease", func(t *testing.T) {
		covers(RLease)
		grants := map[string]kvstore.LeaseGrant{
			"t.r1": {Epoch: 7, TTL: 200 * time.Millisecond},
			"t.r2": {Epoch: 9, TTL: time.Second},
		}
		got, err := decLeaseReq(encLeaseReq(grants))
		if err != nil || !reflect.DeepEqual(got, grants) {
			t.Fatalf("got %+v, %v", got, err)
		}
		empty, err := decLeaseReq(encLeaseReq(nil))
		if err != nil || len(empty) != 0 {
			t.Fatalf("empty: got %+v, %v", empty, err)
		}
	})

	t.Run("every method covered", func(t *testing.T) {
		all := []byte{
			MLocateAll, MCreateTable, MSplitRegion, MTableRegions, MRegister, MHeartbeat,
			TBegin, TCommit, TAbort, TBeginCommit,
			RGet, RGetBatch, RScanBatch, RApply, ROpenRegion, RMarkOnline, RCloseRegion, RCloseFlush, RSyncWAL,
			FCreate, FAppend, FSync, FClose, FAbandon, FDelete, FRename, FExists, FList, FSize, FReadAll, FReadRange,
			WWatch, WCredit, WCancel,
			RSetReplication, RAppendEntries, RPromote, RReplicaPos, ROpenFollower, RCheckpoint, RLease,
		}
		for _, m := range all {
			if !testedMethods[m] {
				t.Errorf("method %s (0x%02x) has no round-trip coverage", methodName(m), m)
			}
		}
	})

	t.Run("error frames", func(t *testing.T) {
		for _, tc := range []struct {
			in   error
			want error
		}{
			{kvstore.ErrRegionNotServing, kvstore.ErrRegionNotServing},
			{kvstore.ErrServerStopped, kvstore.ErrServerStopped},
			{kvstore.ErrNoSuchTable, kvstore.ErrNoSuchTable},
			{txmgr.ErrConflict, txmgr.ErrConflict},
			{dfs.ErrNotFound, dfs.ErrNotFound},
			{ErrCommitIndeterminate, ErrCommitIndeterminate},
			{watch.ErrLagging, watch.ErrLagging},
			{watch.ErrHorizonPassed, watch.ErrHorizonPassed},
			{watch.ErrClosed, watch.ErrClosed},
			{kvstore.ErrStaleEpoch, kvstore.ErrStaleEpoch},
			{kvstore.ErrLeaseExpired, kvstore.ErrLeaseExpired},
			{kvstore.ErrFollowerBehind, kvstore.ErrFollowerBehind},
			{kvstore.ErrReplicaGap, kvstore.ErrReplicaGap},
		} {
			got := DecodeError(EncodeError(tc.in))
			if !errors.Is(got, tc.want) {
				t.Fatalf("error %v: decoded %v does not unwrap to it", tc.in, got)
			}
		}
		// Conflicts must stay retryable across the wire.
		if !txmgr.IsRetryable(DecodeError(EncodeError(txmgr.ErrConflict))) {
			t.Fatal("remote conflict lost retryability")
		}
	})
}

// TestPresizedEncodersKeepWireBytes pins the encoders that size their
// buffer up front and write the write-set in place to the bytes of the
// plain field-by-field encoding, and checks that each allocates once: the
// result's capacity covers it.
func TestPresizedEncodersKeepWireBytes(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 300) // two-byte length prefixes
	updates := []kv.Update{
		{Table: "t", Row: "r", Column: "c", Value: big},
		{Table: "t", Row: "r2", Column: "c", Tombstone: true},
	}
	ws := kv.WriteSet{TxnID: 1 << 30, ClientID: "c1", CommitTS: 1 << 50, Updates: updates}
	kvs := []kv.KeyValue{
		{Cell: kv.Cell{Row: "row-a", Column: "c1", TS: 1 << 40}, Value: big},
		{Cell: kv.Cell{Row: "row-b", Column: "c2", TS: 9}, Tombstone: true},
	}
	appendKVs := func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(kvs)))
		for _, e := range kvs {
			b = kv.AppendKeyValue(b, e)
		}
		return b
	}
	for _, tc := range []struct {
		name      string
		got, want []byte
	}{
		{"RApply", encApplyReq(ws, 1<<20, true),
			appendBytes(appendBool(appendUvarint(nil, 1<<20), true), kv.EncodeWriteSet(ws))},
		{"TCommit", encCommitReq(1<<33, updates, true),
			appendBytes(appendBool(appendUvarint(nil, 1<<33), true), kv.EncodeWriteSet(kv.WriteSet{Updates: updates}))},
		{"TBeginCommit", encBeginCommitReq("c1", 2, updates, false),
			appendBytes(appendBool(appendUvarint(appendString(nil, "c1"), 2), false), kv.EncodeWriteSet(kv.WriteSet{Updates: updates}))},
		{"RScanBatch response", encScanResp(kvstore.ScanResponse{KVs: kvs, More: true, RegionEnd: "m"}),
			appendString(appendBool(appendKVs(nil), true), "m")},
		{"RAppendEntries", appendReplEntries(nil, []kvstore.ReplEntry{{Seq: 1 << 20, KVs: kvs}, {Seq: 2}}),
			appendUvarint(appendUvarint(appendKVs(appendUvarint(appendUvarint(nil, 2), 1<<20)), 2), 0)},
		{"FAppend", encFAppendReq(1<<40, big), appendBytes(appendUvarint(nil, 1<<40), big)},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", tc.name, tc.got, tc.want)
		}
		if cap(tc.got) > len(tc.got)+3*binary.MaxVarintLen64 {
			t.Errorf("%s: %d bytes in a %d-byte buffer: not sized up front", tc.name, len(tc.got), cap(tc.got))
		}
	}

	// A request frame built in one buffer equals AppendFrame over the
	// deadline-prefixed body.
	body := encCommitReq(9, updates, true)
	got, err := appendRequest(TCommit, 77, 1<<62, body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := AppendFrame(nil, Frame{Ver: Version, Kind: KindRequest, Method: TCommit, ID: 77,
		Body: append(binary.BigEndian.AppendUint64(nil, 1<<62), body...)})
	if !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("request frame: got %x (cap %d), want %x", got, cap(got), want)
	}
}
