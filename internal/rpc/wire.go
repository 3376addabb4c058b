package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"txkv/internal/kv"
	"txkv/internal/kvstore"
	"txkv/internal/watch"
)

// Method codes and per-method message codecs. Every message body is a flat
// uvarint/length-prefixed encoding in the same style as internal/kv's
// codecs (which this file reuses for KeyValue and WriteSet payloads).
// PROTOCOL.md documents each body field by field; rpc/protocol_test.go
// round-trips every codec here against that document's message list.

// Method codes. Grouped by service surface; values are wire protocol and
// must never be reused.
const (
	// Master surface (served by the master process).
	MLocateAll    byte = 0x01
	MCreateTable  byte = 0x02
	MSplitRegion  byte = 0x03
	MTableRegions byte = 0x04
	MRegister     byte = 0x05
	MHeartbeat    byte = 0x06

	// Transaction gateway surface (served by the master process).
	TBegin       byte = 0x20
	TCommit      byte = 0x21
	TAbort       byte = 0x22
	TBeginCommit byte = 0x23

	// Region-server surface (served by each region-server process).
	RGet         byte = 0x40
	RGetBatch    byte = 0x41
	RScanBatch   byte = 0x42
	RApply       byte = 0x43
	ROpenRegion  byte = 0x44
	RMarkOnline  byte = 0x45
	RCloseRegion byte = 0x46
	RCloseFlush  byte = 0x47
	RSyncWAL     byte = 0x48

	// Replication surface (served by each region-server process): the
	// master's replica-control calls plus the primary→follower shipping
	// stream. 0x4F and 0x51 are retired (a catch-up snapshot stream and
	// its credit).
	RSetReplication byte = 0x49
	RAppendEntries  byte = 0x4A
	RPromote        byte = 0x4B
	RReplicaPos     byte = 0x4C
	ROpenFollower   byte = 0x4D
	RCheckpoint     byte = 0x4E
	RLease          byte = 0x50

	// Watch surface (served by the master process; the protocol's first
	// streaming methods — WWatch answers with KindStream frames).
	WWatch  byte = 0x80
	WCredit byte = 0x81
	WCancel byte = 0x82

	// DFS surface (served by the master process).
	FCreate    byte = 0x60
	FAppend    byte = 0x61
	FSync      byte = 0x62
	FClose     byte = 0x63
	FAbandon   byte = 0x64
	FDelete    byte = 0x65
	FRename    byte = 0x66
	FExists    byte = 0x67
	FList      byte = 0x68
	FSize      byte = 0x69
	FReadAll   byte = 0x6A
	FReadRange byte = 0x6B
)

// errTruncated reports a message body shorter than its own structure.
var errTruncated = errors.New("rpc: truncated message")

// --- primitive append helpers ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendWriteSet appends ws, whose encoding is n bytes (kv.WriteSetSize),
// as a length-prefixed bytes field, encoding it in place rather than
// through an intermediate buffer. Callers size b for it up front.
func appendWriteSet(b []byte, ws kv.WriteSet, n int) []byte {
	b = appendUvarint(b, uint64(n))
	return kv.AppendWriteSet(b, ws)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- primitive decoder ---

// dec is a cursor over a message body. The first malformed read latches
// err; later reads return zero values, so codecs read a whole message and
// check err once. Count prefixes are sanity-bounded against the remaining
// bytes before any allocation (each element takes at least one byte), so a
// hostile length prefix cannot force an oversized allocation.
type dec struct {
	b   []byte
	err error
}

func newDec(b []byte) *dec { return &dec{b: b} }

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint element count and bounds it by the bytes left.
func (d *dec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *dec) keyValue() kv.KeyValue {
	if d.err != nil {
		return kv.KeyValue{}
	}
	e, rest, err := kv.DecodeKeyValue(d.b)
	if err != nil {
		d.err = err
		return kv.KeyValue{}
	}
	d.b = rest
	return e
}

// --- shared composite codecs ---

func appendRegionInfo(b []byte, info kvstore.RegionInfo) []byte {
	b = appendString(b, info.ID)
	b = appendString(b, info.Table)
	b = appendString(b, string(info.Range.Start))
	return appendString(b, string(info.Range.End))
}

func (d *dec) regionInfo() kvstore.RegionInfo {
	return kvstore.RegionInfo{
		ID:    d.str(),
		Table: d.str(),
		Range: kv.KeyRange{Start: kv.Key(d.str()), End: kv.Key(d.str())},
	}
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func (d *dec) strings() []string {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ss = append(ss, d.str())
	}
	return ss
}

// --- master surface ---

// encStringMsg / decStringMsg: the shared single-string body (MLocateAll,
// MTableRegions table; FDelete/FExists/... paths).
func encStringMsg(s string) []byte { return appendString(nil, s) }

func decStringMsg(b []byte) (string, error) {
	d := newDec(b)
	s := d.str()
	return s, d.err
}

// WireLocation is one entry of a LocateAll response: region metadata plus
// the advertised address of the server hosting it (empty = the region is
// hosted by a server without an advertised address; remote clients skip it
// and retry, exactly as they would an offline region). FollowerAddrs lists
// the advertised addresses of live follower copies — the endpoints a
// follower-reads client may route scan batches to.
type WireLocation struct {
	Info          kvstore.RegionInfo
	Addr          string
	FollowerAddrs []string
}

func encLocateAllResp(locs []WireLocation) []byte {
	b := appendUvarint(nil, uint64(len(locs)))
	for _, l := range locs {
		b = appendRegionInfo(b, l.Info)
		b = appendString(b, l.Addr)
		b = appendStrings(b, l.FollowerAddrs)
	}
	return b
}

func decLocateAllResp(b []byte) ([]WireLocation, error) {
	d := newDec(b)
	n := d.count()
	locs := make([]WireLocation, 0, n)
	for i := 0; i < n; i++ {
		locs = append(locs, WireLocation{Info: d.regionInfo(), Addr: d.str(), FollowerAddrs: d.strings()})
	}
	return locs, d.err
}

func encCreateTableReq(name string, splits []kv.Key) []byte {
	b := appendString(nil, name)
	b = appendUvarint(b, uint64(len(splits)))
	for _, s := range splits {
		b = appendString(b, string(s))
	}
	return b
}

func decCreateTableReq(b []byte) (string, []kv.Key, error) {
	d := newDec(b)
	name := d.str()
	n := d.count()
	splits := make([]kv.Key, 0, n)
	for i := 0; i < n; i++ {
		splits = append(splits, kv.Key(d.str()))
	}
	return name, splits, d.err
}

func encSplitRegionReq(regionID string, splitKey kv.Key) []byte {
	b := appendString(nil, regionID)
	return appendString(b, string(splitKey))
}

func decSplitRegionReq(b []byte) (string, kv.Key, error) {
	d := newDec(b)
	id := d.str()
	key := kv.Key(d.str())
	return id, key, d.err
}

func encRegionInfosResp(infos []kvstore.RegionInfo) []byte {
	b := appendUvarint(nil, uint64(len(infos)))
	for _, info := range infos {
		b = appendRegionInfo(b, info)
	}
	return b
}

func decRegionInfosResp(b []byte) ([]kvstore.RegionInfo, error) {
	d := newDec(b)
	n := d.count()
	infos := make([]kvstore.RegionInfo, 0, n)
	for i := 0; i < n; i++ {
		infos = append(infos, d.regionInfo())
	}
	return infos, d.err
}

func encRegisterReq(serverID, addr string) []byte {
	b := appendString(nil, serverID)
	return appendString(b, addr)
}

func decRegisterReq(b []byte) (string, string, error) {
	d := newDec(b)
	id := d.str()
	addr := d.str()
	return id, addr, d.err
}

// encHeartbeatReq / decHeartbeatReq: serverID | tp. tp was appended to the
// original serverID-only body; a body that ends after serverID (an older
// sender) decodes as tp 0, which can only hold the global T_P back.
func encHeartbeatReq(serverID string, tp kv.Timestamp) []byte {
	return appendUvarint(appendString(nil, serverID), uint64(tp))
}

func decHeartbeatReq(b []byte) (string, kv.Timestamp, error) {
	d := newDec(b)
	id := d.str()
	var tp kv.Timestamp
	if d.err == nil && len(d.b) > 0 {
		tp = kv.Timestamp(d.uvarint())
	}
	return id, tp, d.err
}

// encHeartbeatResp / decHeartbeatResp: the global T_F. An empty body (an
// older master) decodes as 0, which a server ignores.
func encHeartbeatResp(tf kv.Timestamp) []byte { return appendUvarint(nil, uint64(tf)) }

func decHeartbeatResp(b []byte) (kv.Timestamp, error) {
	if len(b) == 0 {
		return 0, nil
	}
	d := newDec(b)
	tf := kv.Timestamp(d.uvarint())
	return tf, d.err
}

// --- region-server surface ---

func encGetReq(table string, row kv.Key, column string, maxTS kv.Timestamp) []byte {
	b := appendString(nil, table)
	b = appendString(b, string(row))
	b = appendString(b, column)
	return appendUvarint(b, uint64(maxTS))
}

func decGetReq(b []byte) (table string, row kv.Key, column string, maxTS kv.Timestamp, err error) {
	d := newDec(b)
	table = d.str()
	row = kv.Key(d.str())
	column = d.str()
	maxTS = kv.Timestamp(d.uvarint())
	return table, row, column, maxTS, d.err
}

func encGetResp(e kv.KeyValue, found bool) []byte {
	b := appendBool(nil, found)
	if found {
		b = kv.AppendKeyValue(b, e)
	}
	return b
}

func decGetResp(b []byte) (kv.KeyValue, bool, error) {
	d := newDec(b)
	found := d.bool()
	var e kv.KeyValue
	if found {
		e = d.keyValue()
	}
	return e, found, d.err
}

func encGetBatchReq(table string, keys []kv.CellKey, maxTS kv.Timestamp) []byte {
	b := appendString(nil, table)
	b = appendUvarint(b, uint64(maxTS))
	b = appendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, string(k.Row))
		b = appendString(b, k.Column)
	}
	return b
}

func decGetBatchReq(b []byte) (string, []kv.CellKey, kv.Timestamp, error) {
	d := newDec(b)
	table := d.str()
	maxTS := kv.Timestamp(d.uvarint())
	n := d.count()
	keys := make([]kv.CellKey, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, kv.CellKey{Row: kv.Key(d.str()), Column: d.str()})
	}
	return table, keys, maxTS, d.err
}

func encGetBatchResp(kvs []kv.KeyValue, found []bool) []byte {
	b := appendUvarint(nil, uint64(len(kvs)))
	for i := range kvs {
		ok := i < len(found) && found[i]
		b = appendBool(b, ok)
		if ok {
			b = kv.AppendKeyValue(b, kvs[i])
		}
	}
	return b
}

func decGetBatchResp(b []byte) ([]kv.KeyValue, []bool, error) {
	d := newDec(b)
	n := d.count()
	kvs := make([]kv.KeyValue, n)
	found := make([]bool, n)
	for i := 0; i < n; i++ {
		if found[i] = d.bool(); found[i] {
			kvs[i] = d.keyValue()
		}
	}
	return kvs, found, d.err
}

func encScanReq(req kvstore.ScanRequest) []byte {
	b := appendString(nil, req.Table)
	b = appendString(b, string(req.Range.Start))
	b = appendString(b, string(req.Range.End))
	b = appendUvarint(b, uint64(req.MaxTS))
	b = appendBool(b, req.HasResume)
	b = appendString(b, string(req.Resume.Row))
	b = appendString(b, req.Resume.Column)
	b = appendStrings(b, req.Columns)
	b = appendBool(b, req.KeysOnly)
	b = appendUvarint(b, uint64(req.Batch))
	return appendBool(b, req.AllowFollower)
}

func decScanReq(b []byte) (kvstore.ScanRequest, error) {
	d := newDec(b)
	req := kvstore.ScanRequest{
		Table: d.str(),
		Range: kv.KeyRange{Start: kv.Key(d.str()), End: kv.Key(d.str())},
		MaxTS: kv.Timestamp(d.uvarint()),
	}
	req.HasResume = d.bool()
	req.Resume = kv.CellKey{Row: kv.Key(d.str()), Column: d.str()}
	req.Columns = d.strings()
	req.KeysOnly = d.bool()
	req.Batch = int(d.uvarint())
	req.AllowFollower = d.bool()
	return req, d.err
}

func encScanResp(resp kvstore.ScanResponse) []byte {
	n := kv.UvarintSize(uint64(len(resp.KVs))) + 1 + kv.UvarintSize(uint64(len(resp.RegionEnd))) + len(resp.RegionEnd)
	for _, e := range resp.KVs {
		n += kv.KeyValueSize(e)
	}
	b := appendUvarint(make([]byte, 0, n), uint64(len(resp.KVs)))
	for _, e := range resp.KVs {
		b = kv.AppendKeyValue(b, e)
	}
	b = appendBool(b, resp.More)
	return appendString(b, string(resp.RegionEnd))
}

func decScanResp(b []byte) (kvstore.ScanResponse, error) {
	d := newDec(b)
	n := d.count()
	resp := kvstore.ScanResponse{KVs: make([]kv.KeyValue, 0, n)}
	for i := 0; i < n; i++ {
		resp.KVs = append(resp.KVs, d.keyValue())
	}
	resp.More = d.bool()
	resp.RegionEnd = kv.Key(d.str())
	return resp, d.err
}

func encApplyReq(ws kv.WriteSet, piggy kv.Timestamp, hasPiggy bool) []byte {
	n := kv.WriteSetSize(ws)
	b := make([]byte, 0, 2*binary.MaxVarintLen64+1+n)
	b = appendUvarint(b, uint64(piggy))
	b = appendBool(b, hasPiggy)
	return appendWriteSet(b, ws, n)
}

func decApplyReq(b []byte) (kv.WriteSet, kv.Timestamp, bool, error) {
	d := newDec(b)
	piggy := kv.Timestamp(d.uvarint())
	hasPiggy := d.bool()
	wsb := d.bytes()
	if d.err != nil {
		return kv.WriteSet{}, 0, false, d.err
	}
	ws, err := kv.DecodeWriteSet(wsb)
	return ws, piggy, hasPiggy, err
}

func encOpenRegionReq(info kvstore.RegionInfo, files []string, hasFiles bool, edits []kvstore.WALEntry, recovering bool) []byte {
	b := appendRegionInfo(nil, info)
	b = appendBool(b, hasFiles)
	b = appendStrings(b, files)
	b = appendUvarint(b, uint64(len(edits)))
	for _, e := range edits {
		b = appendBytes(b, kvstore.EncodeWALEntry(e))
	}
	return appendBool(b, recovering)
}

func decOpenRegionReq(b []byte) (info kvstore.RegionInfo, files []string, hasFiles bool, edits []kvstore.WALEntry, recovering bool, err error) {
	d := newDec(b)
	info = d.regionInfo()
	hasFiles = d.bool()
	files = d.strings()
	n := d.count()
	edits = make([]kvstore.WALEntry, 0, n)
	for i := 0; i < n; i++ {
		eb := d.bytes()
		if d.err != nil {
			break
		}
		e, derr := kvstore.DecodeWALEntry(eb)
		if derr != nil {
			d.err = derr
			break
		}
		edits = append(edits, e)
	}
	recovering = d.bool()
	return info, files, hasFiles, edits, recovering, d.err
}

// --- replication surface ---

func encSetReplicationReq(regionID string, epoch uint64, targets []kvstore.ReplicaTarget, ttl time.Duration) []byte {
	b := appendString(nil, regionID)
	b = appendUvarint(b, epoch)
	b = appendUvarint(b, uint64(ttl))
	b = appendUvarint(b, uint64(len(targets)))
	for _, t := range targets {
		b = appendString(b, t.ServerID)
		b = appendString(b, t.Addr)
	}
	return b
}

func decSetReplicationReq(b []byte) (regionID string, epoch uint64, targets []kvstore.ReplicaTarget, ttl time.Duration, err error) {
	d := newDec(b)
	regionID = d.str()
	epoch = d.uvarint()
	ttl = time.Duration(d.uvarint())
	n := d.count()
	targets = make([]kvstore.ReplicaTarget, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, kvstore.ReplicaTarget{ServerID: d.str(), Addr: d.str()})
	}
	return regionID, epoch, targets, ttl, d.err
}

func appendReplEntries(b []byte, entries []kvstore.ReplEntry) []byte {
	n := kv.UvarintSize(uint64(len(entries)))
	for _, en := range entries {
		n += kv.UvarintSize(en.Seq) + kv.UvarintSize(uint64(len(en.KVs)))
		for _, x := range en.KVs {
			n += kv.KeyValueSize(x)
		}
	}
	b = slices.Grow(b, n)
	b = appendUvarint(b, uint64(len(entries)))
	for _, en := range entries {
		b = appendUvarint(b, en.Seq)
		b = appendUvarint(b, uint64(len(en.KVs)))
		for _, x := range en.KVs {
			b = kv.AppendKeyValue(b, x)
		}
	}
	return b
}

func (d *dec) replEntries() []kvstore.ReplEntry {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	entries := make([]kvstore.ReplEntry, 0, n)
	for i := 0; i < n; i++ {
		en := kvstore.ReplEntry{Seq: d.uvarint()}
		m := d.count()
		for j := 0; j < m; j++ {
			en.KVs = append(en.KVs, d.keyValue())
		}
		if d.err != nil {
			return nil
		}
		entries = append(entries, en)
	}
	return entries
}

func encAppendEntriesReq(regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp) []byte {
	b := appendString(nil, regionID)
	b = appendUvarint(b, epoch)
	b = appendUvarint(b, tipSeq)
	b = appendUvarint(b, uint64(safeTS))
	return appendReplEntries(b, entries)
}

func decAppendEntriesReq(b []byte) (regionID string, epoch uint64, entries []kvstore.ReplEntry, tipSeq uint64, safeTS kv.Timestamp, err error) {
	d := newDec(b)
	regionID = d.str()
	epoch = d.uvarint()
	tipSeq = d.uvarint()
	safeTS = kv.Timestamp(d.uvarint())
	entries = d.replEntries()
	return regionID, epoch, entries, tipSeq, safeTS, d.err
}

// encAppendEntriesResp carries the follower's position alongside the error
// classification inside a KindResponse frame: a gap or stale-epoch rejection
// still reports the follower's last applied sequence (the shipper rewinds to
// it), which a bare error frame could not carry.
func encAppendEntriesResp(lastSeq uint64, code ErrorCode, msg string) []byte {
	b := appendUvarint(nil, lastSeq)
	b = appendUvarint(b, uint64(code))
	return appendString(b, msg)
}

func decAppendEntriesResp(b []byte) (uint64, ErrorCode, string, error) {
	d := newDec(b)
	lastSeq := d.uvarint()
	code := ErrorCode(d.uvarint())
	msg := d.str()
	return lastSeq, code, msg, d.err
}

func encPromoteReq(regionID string, epoch uint64, ttl time.Duration) []byte {
	b := appendString(nil, regionID)
	b = appendUvarint(b, epoch)
	return appendUvarint(b, uint64(ttl))
}

func decPromoteReq(b []byte) (regionID string, epoch uint64, ttl time.Duration, err error) {
	d := newDec(b)
	regionID = d.str()
	epoch = d.uvarint()
	ttl = time.Duration(d.uvarint())
	return regionID, epoch, ttl, d.err
}

func encReplicaPos(pos kvstore.ReplicaPosition) []byte {
	b := appendUvarint(nil, pos.Epoch)
	b = appendUvarint(b, pos.LastSeq)
	b = appendUvarint(b, pos.Checkpoint)
	return appendUvarint(b, uint64(pos.FrontierTS))
}

func decReplicaPos(b []byte) (kvstore.ReplicaPosition, error) {
	d := newDec(b)
	pos := kvstore.ReplicaPosition{
		Epoch:      d.uvarint(),
		LastSeq:    d.uvarint(),
		Checkpoint: d.uvarint(),
		FrontierTS: kv.Timestamp(d.uvarint()),
	}
	return pos, d.err
}

func encOpenFollowerReq(info kvstore.RegionInfo, epoch uint64) []byte {
	b := appendRegionInfo(nil, info)
	return appendUvarint(b, epoch)
}

func decOpenFollowerReq(b []byte) (kvstore.RegionInfo, uint64, error) {
	d := newDec(b)
	info := d.regionInfo()
	epoch := d.uvarint()
	return info, epoch, d.err
}

func encCheckpointReq(regionID string, epoch, seq uint64) []byte {
	b := appendString(nil, regionID)
	b = appendUvarint(b, epoch)
	return appendUvarint(b, seq)
}

func decCheckpointReq(b []byte) (regionID string, epoch, seq uint64, err error) {
	d := newDec(b)
	regionID = d.str()
	epoch = d.uvarint()
	seq = d.uvarint()
	return regionID, epoch, seq, d.err
}

func encLeaseReq(grants map[string]kvstore.LeaseGrant) []byte {
	b := appendUvarint(nil, uint64(len(grants)))
	for regionID, g := range grants {
		b = appendString(b, regionID)
		b = appendUvarint(b, g.Epoch)
		b = appendUvarint(b, uint64(g.TTL))
	}
	return b
}

func decLeaseReq(b []byte) (map[string]kvstore.LeaseGrant, error) {
	d := newDec(b)
	n := d.count()
	grants := make(map[string]kvstore.LeaseGrant, n)
	for i := 0; i < n; i++ {
		regionID := d.str()
		g := kvstore.LeaseGrant{Epoch: d.uvarint(), TTL: time.Duration(d.uvarint())}
		if d.err != nil {
			break
		}
		grants[regionID] = g
	}
	return grants, d.err
}

// --- transaction gateway surface ---

// encBeginReq / decBeginReq: clientID | readOnly | snapTS | mode |
// release. release, the handles of read-only transactions the sender has
// finished since its last begin, was appended to the original body; a body
// that ends after mode (an older sender) decodes as an empty list.
func encBeginReq(clientID string, readOnly bool, snapTS kv.Timestamp, mode uint64, release []uint64) []byte {
	b := make([]byte, 0, (3+len(release))*binary.MaxVarintLen64+len(clientID)+2)
	b = appendString(b, clientID)
	b = appendBool(b, readOnly)
	b = appendUvarint(b, uint64(snapTS))
	b = appendUvarint(b, mode)
	b = appendUvarint(b, uint64(len(release)))
	for _, h := range release {
		b = appendUvarint(b, h)
	}
	return b
}

func decBeginReq(b []byte) (clientID string, readOnly bool, snapTS kv.Timestamp, mode uint64, release []uint64, err error) {
	d := newDec(b)
	clientID = d.str()
	readOnly = d.bool()
	snapTS = kv.Timestamp(d.uvarint())
	mode = d.uvarint()
	if d.err == nil && len(d.b) > 0 {
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			release = append(release, d.uvarint())
		}
	}
	return clientID, readOnly, snapTS, mode, release, d.err
}

func encBeginResp(handle uint64, startTS kv.Timestamp) []byte {
	b := appendUvarint(nil, handle)
	return appendUvarint(b, uint64(startTS))
}

func decBeginResp(b []byte) (uint64, kv.Timestamp, error) {
	d := newDec(b)
	handle := d.uvarint()
	startTS := kv.Timestamp(d.uvarint())
	return handle, startTS, d.err
}

func encCommitReq(handle uint64, updates []kv.Update, wait bool) []byte {
	ws := kv.WriteSet{Updates: updates}
	n := kv.WriteSetSize(ws)
	b := make([]byte, 0, 2*binary.MaxVarintLen64+1+n)
	b = appendUvarint(b, handle)
	b = appendBool(b, wait)
	return appendWriteSet(b, ws, n)
}

func decCommitReq(b []byte) (handle uint64, updates []kv.Update, wait bool, err error) {
	d := newDec(b)
	handle = d.uvarint()
	wait = d.bool()
	wsb := d.bytes()
	if d.err != nil {
		return 0, nil, false, d.err
	}
	ws, err := kv.DecodeWriteSet(wsb)
	return handle, ws.Updates, wait, err
}

// encCommitResp carries the commit outcome inside a KindResponse frame:
// commits can partially succeed (indeterminate, committed-but-flush-failed),
// so the timestamp and the error classification travel together rather
// than as a bare error frame.
func encCommitResp(cts kv.Timestamp, code ErrorCode, msg string) []byte {
	b := appendUvarint(nil, uint64(cts))
	b = appendUvarint(b, uint64(code))
	return appendString(b, msg)
}

func decCommitResp(b []byte) (kv.Timestamp, ErrorCode, string, error) {
	d := newDec(b)
	cts := kv.Timestamp(d.uvarint())
	code := ErrorCode(d.uvarint())
	msg := d.str()
	return cts, code, msg, d.err
}

func encBeginCommitReq(clientID string, mode uint64, updates []kv.Update, wait bool) []byte {
	ws := kv.WriteSet{Updates: updates}
	n := kv.WriteSetSize(ws)
	b := make([]byte, 0, 3*binary.MaxVarintLen64+len(clientID)+1+n)
	b = appendString(b, clientID)
	b = appendUvarint(b, mode)
	b = appendBool(b, wait)
	return appendWriteSet(b, ws, n)
}

func decBeginCommitReq(b []byte) (clientID string, mode uint64, updates []kv.Update, wait bool, err error) {
	d := newDec(b)
	clientID = d.str()
	mode = d.uvarint()
	wait = d.bool()
	wsb := d.bytes()
	if d.err != nil {
		return "", 0, nil, false, d.err
	}
	ws, err := kv.DecodeWriteSet(wsb)
	return clientID, mode, ws.Updates, wait, err
}

// encBeginCommitResp is encCommitResp led by the start timestamp the
// gateway's begin assigned.
func encBeginCommitResp(startTS, cts kv.Timestamp, code ErrorCode, msg string) []byte {
	b := appendUvarint(nil, uint64(startTS))
	b = appendUvarint(b, uint64(cts))
	b = appendUvarint(b, uint64(code))
	return appendString(b, msg)
}

func decBeginCommitResp(b []byte) (startTS, cts kv.Timestamp, code ErrorCode, msg string, err error) {
	d := newDec(b)
	startTS = kv.Timestamp(d.uvarint())
	cts = kv.Timestamp(d.uvarint())
	code = ErrorCode(d.uvarint())
	msg = d.str()
	return startTS, cts, code, msg, d.err
}

// encHandleMsg / decHandleMsg: the shared single-uvarint body (TAbort,
// FSync/FClose/FAbandon writer IDs, FCreate/FSize responses).
func encHandleMsg(v uint64) []byte { return appendUvarint(nil, v) }

func decHandleMsg(b []byte) (uint64, error) {
	d := newDec(b)
	v := d.uvarint()
	return v, d.err
}

// --- DFS surface ---

func encFAppendReq(id uint64, p []byte) []byte {
	b := appendUvarint(make([]byte, 0, 2*binary.MaxVarintLen64+len(p)), id)
	return appendBytes(b, p)
}

func decFAppendReq(b []byte) (uint64, []byte, error) {
	d := newDec(b)
	id := d.uvarint()
	p := d.bytes()
	return id, p, d.err
}

func encFRenameReq(oldPath, newPath string) []byte {
	b := appendString(nil, oldPath)
	return appendString(b, newPath)
}

func decFRenameReq(b []byte) (string, string, error) {
	d := newDec(b)
	o := d.str()
	n := d.str()
	return o, n, d.err
}

func encFReadRangeReq(path string, off int64, n int) []byte {
	b := appendString(nil, path)
	b = appendUvarint(b, uint64(off))
	return appendUvarint(b, uint64(n))
}

func decFReadRangeReq(b []byte) (string, int64, int, error) {
	d := newDec(b)
	path := d.str()
	off := int64(d.uvarint())
	n := int(d.uvarint())
	return path, off, n, d.err
}

func encBytesMsg(p []byte) []byte { return appendBytes(nil, p) }

func decBytesMsg(b []byte) ([]byte, error) {
	d := newDec(b)
	p := d.bytes()
	return p, d.err
}

func encBoolMsg(v bool) []byte { return appendBool(nil, v) }

func decBoolMsg(b []byte) (bool, error) {
	d := newDec(b)
	v := d.bool()
	return v, d.err
}

func encStringsMsg(ss []string) []byte { return appendStrings(nil, ss) }

func decStringsMsg(b []byte) ([]string, error) {
	d := newDec(b)
	ss := d.strings()
	return ss, d.err
}

// --- watch surface ---

// defaultWatchWindow is the credit window a remote watcher grants the
// server: how many batches may be pushed ahead of consumption. The client
// replenishes at half-window, so steady-state streaming never stalls.
const defaultWatchWindow = 64

func encWatchReq(table string, rng kv.KeyRange, from kv.Timestamp, window int, owner string) []byte {
	b := appendString(nil, table)
	b = appendString(b, string(rng.Start))
	b = appendString(b, string(rng.End))
	b = appendUvarint(b, uint64(from))
	b = appendUvarint(b, uint64(window))
	return appendString(b, owner)
}

func decWatchReq(b []byte) (table string, rng kv.KeyRange, from kv.Timestamp, window int, owner string, err error) {
	d := newDec(b)
	table = d.str()
	rng = kv.KeyRange{Start: kv.Key(d.str()), End: kv.Key(d.str())}
	from = kv.Timestamp(d.uvarint())
	window = int(d.uvarint())
	owner = d.str()
	return table, rng, from, window, owner, d.err
}

// encWatchBatch encodes one stream element: the batch position, its commit
// timestamp (0 for progress-only batches), and the events. The table is not
// repeated per event — it is fixed by the watch request.
func encWatchBatch(wb watch.ChangeBatch) []byte {
	b := appendUvarint(nil, uint64(wb.Pos))
	b = appendUvarint(b, uint64(wb.CommitTS))
	b = appendUvarint(b, uint64(len(wb.Events)))
	for _, e := range wb.Events {
		b = appendString(b, string(e.Key))
		b = appendString(b, e.Column)
		b = appendBytes(b, e.Value)
		b = appendBool(b, e.Delete)
	}
	return b
}

func decWatchBatch(body []byte, table string) (watch.ChangeBatch, error) {
	d := newDec(body)
	wb := watch.ChangeBatch{
		Pos:      kv.Timestamp(d.uvarint()),
		CommitTS: kv.Timestamp(d.uvarint()),
	}
	n := d.count()
	for i := 0; i < n; i++ {
		wb.Events = append(wb.Events, watch.ChangeEvent{
			Table:    table,
			Key:      kv.Key(d.str()),
			Column:   d.str(),
			Value:    d.bytes(),
			Delete:   d.bool(),
			CommitTS: wb.CommitTS,
		})
	}
	return wb, d.err
}

func encWatchCreditReq(streamID uint64, n int) []byte {
	b := appendUvarint(nil, streamID)
	return appendUvarint(b, uint64(n))
}

func decWatchCreditReq(b []byte) (uint64, int, error) {
	d := newDec(b)
	id := d.uvarint()
	n := int(d.uvarint())
	return id, n, d.err
}

// methodName names a method code for metrics and error text.
func methodName(m byte) string {
	switch m {
	case MLocateAll:
		return "m.locate_all"
	case MCreateTable:
		return "m.create_table"
	case MSplitRegion:
		return "m.split_region"
	case MTableRegions:
		return "m.table_regions"
	case MRegister:
		return "m.register"
	case MHeartbeat:
		return "m.heartbeat"
	case TBegin:
		return "t.begin"
	case TCommit:
		return "t.commit"
	case TAbort:
		return "t.abort"
	case TBeginCommit:
		return "t.begin_commit"
	case RGet:
		return "r.get"
	case RGetBatch:
		return "r.get_batch"
	case RScanBatch:
		return "r.scan_batch"
	case RApply:
		return "r.apply"
	case ROpenRegion:
		return "r.open_region"
	case RMarkOnline:
		return "r.mark_online"
	case RCloseRegion:
		return "r.close_region"
	case RCloseFlush:
		return "r.close_flush"
	case RSyncWAL:
		return "r.sync_wal"
	case RSetReplication:
		return "r.set_replication"
	case RAppendEntries:
		return "r.append_entries"
	case RPromote:
		return "r.promote"
	case RReplicaPos:
		return "r.replica_pos"
	case ROpenFollower:
		return "r.open_follower"
	case RCheckpoint:
		return "r.checkpoint"
	case RLease:
		return "r.lease"
	case FCreate:
		return "f.create"
	case FAppend:
		return "f.append"
	case FSync:
		return "f.sync"
	case FClose:
		return "f.close"
	case FAbandon:
		return "f.abandon"
	case FDelete:
		return "f.delete"
	case FRename:
		return "f.rename"
	case FExists:
		return "f.exists"
	case FList:
		return "f.list"
	case FSize:
		return "f.size"
	case FReadAll:
		return "f.read_all"
	case FReadRange:
		return "f.read_range"
	case WWatch:
		return "w.watch"
	case WCredit:
		return "w.credit"
	case WCancel:
		return "w.cancel"
	default:
		return fmt.Sprintf("0x%02x", m)
	}
}
