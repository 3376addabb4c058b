package kvstore

import (
	"encoding/binary"
	"fmt"

	"txkv/internal/kv"
)

// WALEntry is one record in a region server's write-ahead log: a batch of
// versioned cells destined for a single region. Tagging entries with the
// region ID is what lets the master split a dead server's log by region
// during recovery (HBase's log-splitting step, paper §2.1).
type WALEntry struct {
	RegionID string
	KVs      []kv.KeyValue
}

// EncodeWALEntry returns the binary encoding of e.
func EncodeWALEntry(e WALEntry) []byte {
	n := kv.UvarintSize(uint64(len(e.RegionID))) + len(e.RegionID) + kv.UvarintSize(uint64(len(e.KVs)))
	for _, x := range e.KVs {
		n += kv.KeyValueSize(x)
	}
	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(len(e.RegionID)))
	b = append(b, e.RegionID...)
	b = binary.AppendUvarint(b, uint64(len(e.KVs)))
	for _, x := range e.KVs {
		b = kv.AppendKeyValue(b, x)
	}
	return b
}

// DecodeWALEntry decodes an entry produced by EncodeWALEntry.
func DecodeWALEntry(b []byte) (WALEntry, error) {
	var e WALEntry
	n, c := binary.Uvarint(b)
	if c <= 0 || uint64(len(b)) < uint64(c)+n {
		return e, fmt.Errorf("kvstore: wal entry: %w", kv.ErrCodecTruncated)
	}
	e.RegionID = string(b[c : uint64(c)+n])
	b = b[uint64(c)+n:]
	count, c := binary.Uvarint(b)
	if c <= 0 {
		return e, fmt.Errorf("kvstore: wal entry: %w", kv.ErrCodecTruncated)
	}
	b = b[c:]
	if count > uint64(len(b)) { // each entry takes >= 1 byte: bound the allocation
		return e, fmt.Errorf("kvstore: wal entry: %d entries in %d bytes: %w", count, len(b), kv.ErrCodecTruncated)
	}
	e.KVs = make([]kv.KeyValue, 0, count)
	for i := uint64(0); i < count; i++ {
		var x kv.KeyValue
		var err error
		x, b, err = kv.DecodeKeyValue(b)
		if err != nil {
			return e, fmt.Errorf("kvstore: wal entry kv %d: %w", i, err)
		}
		e.KVs = append(e.KVs, x)
	}
	return e, nil
}
