// Package wal implements a framed, checksummed, append-only log record
// format layered on the distributed filesystem. It is used both by the
// HBase-like region servers (one write-ahead log per server) and, through
// the same framing, by the transaction manager's recovery log.
//
// Each record is framed as:
//
//	[4 bytes big-endian length][4 bytes CRC-32 (IEEE) of payload][payload]
//
// A reader tolerates a torn tail: a partially synced final record (length or
// checksum mismatch) terminates iteration cleanly rather than erroring,
// because a crash between Append and Sync legitimately truncates the log
// mid-record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"txkv/internal/dfs"
)

// ErrCorrupt reports a checksum failure in the interior of a log (not at the
// tail), which indicates real corruption rather than a torn write.
var ErrCorrupt = errors.New("wal: corrupt record")

const headerSize = 8

// AppendRecord appends one framed record to buf and returns the extension.
func AppendRecord(buf, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeAll parses every complete record in data. A torn tail (truncated
// header, truncated payload, or checksum mismatch on the final record) ends
// iteration without error; a checksum mismatch that is *not* at the tail
// returns ErrCorrupt along with the records decoded so far.
func DecodeAll(data []byte) ([][]byte, error) {
	var out [][]byte
	off := 0
	for off+headerSize <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		body := off + headerSize
		if body+n > len(data) {
			return out, nil // torn tail: payload truncated
		}
		payload := data[body : body+n]
		if crc32.ChecksumIEEE(payload) != sum {
			if body+n == len(data) {
				return out, nil // torn tail: last record half-synced
			}
			return out, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		out = append(out, append([]byte(nil), payload...))
		off = body + n
	}
	return out, nil
}

// Writer appends framed records to a DFS file. Appends buffer in memory (in
// the writing process) and become durable only on Sync, mirroring HBase's
// deferred-log-flush mode. Writer is safe for concurrent use.
type Writer struct {
	w dfs.FileWriter
}

// Create creates the log file at path on fs.
func Create(fs dfs.FileSystem, path string) (*Writer, error) {
	w, err := fs.CreateFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	return &Writer{w: w}, nil
}

// Append buffers one record. Not durable until Sync.
func (w *Writer) Append(payload []byte) error {
	return w.w.Append(AppendRecord(make([]byte, 0, headerSize+len(payload)), payload))
}

// Sync makes all buffered records durable on the DFS.
func (w *Writer) Sync() error { return w.w.Sync() }

// Buffered returns the number of unsynced bytes.
func (w *Writer) Buffered() int { return w.w.Buffered() }

// Close abandons any unsynced buffer and closes the file.
func (w *Writer) Close() error { return w.w.Close() }

// ReadAll reads and decodes every durable record of the log at path.
func ReadAll(fs dfs.FileSystem, path string) ([][]byte, error) {
	data, err := fs.ReadAll(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, err := DecodeAll(data)
	if err != nil {
		return recs, fmt.Errorf("wal: decode %s: %w", path, err)
	}
	return recs, nil
}
