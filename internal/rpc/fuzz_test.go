package rpc

import (
	"bytes"
	"testing"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
)

// FuzzFrame drives the frame decoder with arbitrary bytes: it must return
// a structured error or a well-formed frame — never panic, and never
// allocate beyond the frame size limit regardless of what the length
// prefix claims. Wired into CI's fuzz smoke step.
func FuzzFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, Frame{Ver: Version, Kind: KindRequest, Method: RGet, ID: 7, Body: []byte("seed-body")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 11, Version, KindRequest, RGet, 0, 0, 0, 0, 0, 0, 0, 1})
	truncated := append([]byte(nil), seed...)
	f.Add(truncated[:len(truncated)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.Body) > MaxFrameBytes {
			t.Fatalf("decoded body of %d bytes exceeds MaxFrameBytes", len(fr.Body))
		}
		if fr.Ver != Version {
			t.Fatalf("decoder accepted version %d", fr.Ver)
		}
		// A decoded frame must re-encode losslessly.
		out, aerr := AppendFrame(nil, fr)
		if aerr != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", aerr)
		}
		back, rerr := ReadFrame(bytes.NewReader(out))
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if back.ID != fr.ID || back.Kind != fr.Kind || back.Method != fr.Method || !bytes.Equal(back.Body, fr.Body) {
			t.Fatal("re-encode/decode not lossless")
		}
	})
}

// FuzzMessageDecoders drives every request decoder with arbitrary bodies:
// structured error or success, never a panic — these run on untrusted
// bytes in the server before any handler logic.
func FuzzMessageDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x'})
	f.Add(encHeartbeatReq("rs-1", 42))
	f.Add(encGetReq("t", "r", "c", 1))
	f.Add(encScanReq(kvstore.ScanRequest{Table: "t", Batch: 8}))
	f.Add(encCommitReq(1, nil, false))
	f.Add(encBeginCommitReq("c", 1, []kv.Update{{Table: "t", Row: "r", Column: "c", Value: []byte("v")}}, true))
	f.Add(encAppendEntriesReq("t.r1", 7, []kvstore.ReplEntry{{Seq: 1}}, 1, 9))
	f.Add(encSetReplicationReq("t.r1", 7, []kvstore.ReplicaTarget{{ServerID: "rs-2"}}, 0))
	f.Add(encBeginReq("c", true, 0, 1, []uint64{7, 1 << 40}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decStringMsg(data)
		_, _ = decHandleMsg(data)
		_, _ = decLocateAllResp(data)
		_, _, _ = decCreateTableReq(data)
		_, _, _ = decSplitRegionReq(data)
		_, _ = decRegionInfosResp(data)
		_, _, _ = decRegisterReq(data)
		_, _, _ = decHeartbeatReq(data)
		_, _ = decHeartbeatResp(data)
		_, _, _, _, _ = decGetReq(data)
		_, _, _ = decGetResp(data)
		_, _, _, _ = decGetBatchReq(data)
		_, _, _ = decGetBatchResp(data)
		_, _ = decScanReq(data)
		_, _ = decScanResp(data)
		_, _, _, _ = decApplyReq(data)
		_, _, _, _, _, _ = decOpenRegionReq(data)
		_, _, _, _, _, _ = decBeginReq(data)
		_, _, _ = decBeginResp(data)
		_, _, _, _ = decCommitReq(data)
		_, _, _, _ = decCommitResp(data)
		_, _, _, _, _ = decBeginCommitReq(data)
		_, _, _, _, _ = decBeginCommitResp(data)
		_, _, _ = decFAppendReq(data)
		_, _, _ = decFRenameReq(data)
		_, _, _, _ = decFReadRangeReq(data)
		_, _ = decBytesMsg(data)
		_, _ = decBoolMsg(data)
		_, _ = decStringsMsg(data)
		_, _, _, _, _, _ = decWatchReq(data)
		_, _ = decWatchBatch(data, "t")
		_, _, _ = decWatchCreditReq(data)
		_, _, _, _, _ = decSetReplicationReq(data)
		_, _, _, _, _, _ = decAppendEntriesReq(data)
		_, _, _, _ = decAppendEntriesResp(data)
		_, _, _, _ = decPromoteReq(data)
		_, _ = decReplicaPos(data)
		_, _, _ = decOpenFollowerReq(data)
		_, _, _, _ = decCheckpointReq(data)
		_, _ = decLeaseReq(data)
		_ = DecodeError(data)
	})
}
