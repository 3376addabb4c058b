package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Binary codecs for KeyValue and WriteSet. The encodings are used by the
// HBase-like server WAL, the store-file format, and the transaction
// manager's recovery log, so they are deliberately simple, length-prefixed,
// and versioned by a leading format byte.

const (
	kvFormatV1 = 0x01
	wsFormatV1 = 0x11
)

// Encoding errors.
var (
	ErrCodecTruncated = errors.New("kv: truncated encoding")
	ErrCodecFormat    = errors.New("kv: unknown encoding format")
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCodecTruncated
	}
	return v, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, ErrCodecTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, ErrCodecTruncated
	}
	return append([]byte(nil), rest[:n]...), rest[n:], nil
}

// UvarintSize returns the length of v's uvarint encoding.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// lenPrefixedSize returns the encoded length of an n-byte string or byte
// slice: its uvarint length prefix plus the bytes.
func lenPrefixedSize(n int) int { return UvarintSize(uint64(n)) + n }

// KeyValueSize returns the exact length of e's AppendKeyValue encoding.
func KeyValueSize(e KeyValue) int {
	return 1 + lenPrefixedSize(len(e.Row)) + lenPrefixedSize(len(e.Column)) +
		UvarintSize(uint64(e.TS)) + 1 + lenPrefixedSize(len(e.Value))
}

// AppendKeyValue appends the binary encoding of e to b and returns the
// extended slice. It grows b at most once.
func AppendKeyValue(b []byte, e KeyValue) []byte {
	b = slices.Grow(b, KeyValueSize(e))
	b = append(b, kvFormatV1)
	b = appendString(b, string(e.Row))
	b = appendString(b, e.Column)
	b = binary.AppendUvarint(b, uint64(e.TS))
	if e.Tombstone {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendBytes(b, e.Value)
}

// DecodeKeyValue decodes one KeyValue from the front of b, returning the
// entry and the remaining bytes.
func DecodeKeyValue(b []byte) (KeyValue, []byte, error) {
	var e KeyValue
	if len(b) == 0 {
		return e, nil, ErrCodecTruncated
	}
	if b[0] != kvFormatV1 {
		return e, nil, fmt.Errorf("%w: key-value format 0x%02x", ErrCodecFormat, b[0])
	}
	b = b[1:]
	row, b, err := readString(b)
	if err != nil {
		return e, nil, err
	}
	col, b, err := readString(b)
	if err != nil {
		return e, nil, err
	}
	ts, b, err := readUvarint(b)
	if err != nil {
		return e, nil, err
	}
	if len(b) == 0 {
		return e, nil, ErrCodecTruncated
	}
	tomb := b[0] == 1
	b = b[1:]
	val, b, err := readBytes(b)
	if err != nil {
		return e, nil, err
	}
	e = KeyValue{
		Cell:      Cell{Row: Key(row), Column: col, TS: Timestamp(ts)},
		Value:     val,
		Tombstone: tomb,
	}
	return e, b, nil
}

// WriteSetSize returns the exact length of w's EncodeWriteSet encoding.
func WriteSetSize(w WriteSet) int {
	n := 1 + UvarintSize(w.TxnID) + lenPrefixedSize(len(w.ClientID)) +
		UvarintSize(uint64(w.CommitTS)) + UvarintSize(uint64(len(w.Updates)))
	for _, u := range w.Updates {
		n += lenPrefixedSize(len(u.Table)) + lenPrefixedSize(len(u.Row)) +
			lenPrefixedSize(len(u.Column)) + 1 + lenPrefixedSize(len(u.Value))
	}
	return n
}

// EncodeWriteSet returns the binary encoding of w.
func EncodeWriteSet(w WriteSet) []byte {
	return AppendWriteSet(make([]byte, 0, WriteSetSize(w)), w)
}

// AppendWriteSet appends the binary encoding of w to b and returns the
// extended slice: EncodeWriteSet for callers that embed the write-set in a
// larger message.
func AppendWriteSet(b []byte, w WriteSet) []byte {
	b = append(b, wsFormatV1)
	b = binary.AppendUvarint(b, w.TxnID)
	b = appendString(b, w.ClientID)
	b = binary.AppendUvarint(b, uint64(w.CommitTS))
	b = binary.AppendUvarint(b, uint64(len(w.Updates)))
	for _, u := range w.Updates {
		b = appendString(b, u.Table)
		b = appendString(b, string(u.Row))
		b = appendString(b, u.Column)
		if u.Tombstone {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendBytes(b, u.Value)
	}
	return b
}

// DecodeWriteSet decodes a write-set previously produced by EncodeWriteSet.
func DecodeWriteSet(b []byte) (WriteSet, error) {
	var w WriteSet
	if len(b) == 0 {
		return w, ErrCodecTruncated
	}
	if b[0] != wsFormatV1 {
		return w, fmt.Errorf("%w: write-set format 0x%02x", ErrCodecFormat, b[0])
	}
	b = b[1:]
	var err error
	if w.TxnID, b, err = readUvarint(b); err != nil {
		return w, err
	}
	if w.ClientID, b, err = readString(b); err != nil {
		return w, err
	}
	var ts uint64
	if ts, b, err = readUvarint(b); err != nil {
		return w, err
	}
	w.CommitTS = Timestamp(ts)
	var n uint64
	if n, b, err = readUvarint(b); err != nil {
		return w, err
	}
	if n > uint64(len(b)) { // each update takes >= 1 byte; cheap sanity bound
		return w, ErrCodecTruncated
	}
	w.Updates = make([]Update, 0, n)
	for i := uint64(0); i < n; i++ {
		var u Update
		var row string
		if u.Table, b, err = readString(b); err != nil {
			return w, err
		}
		if row, b, err = readString(b); err != nil {
			return w, err
		}
		u.Row = Key(row)
		if u.Column, b, err = readString(b); err != nil {
			return w, err
		}
		if len(b) == 0 {
			return w, ErrCodecTruncated
		}
		u.Tombstone = b[0] == 1
		b = b[1:]
		if u.Value, b, err = readBytes(b); err != nil {
			return w, err
		}
		w.Updates = append(w.Updates, u)
	}
	return w, nil
}
