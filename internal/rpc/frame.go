package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framing: every message on a connection is one frame,
//
//	len:u32be | ver:u8 | kind:u8 | method:u8 | id:u64be | body
//
// where len counts everything after itself (ver through body). Requests and
// responses share the header; a response echoes the request's method and id,
// which is what makes pipelining work — many requests can be in flight on
// one connection and responses may arrive in any order. Request bodies lead
// with a u64be deadline (unix nanoseconds, 0 = none) so context deadlines
// propagate to the server. Error-response bodies are `code:uvarint msg:str`.
//
// Streaming methods (the watch surface) answer one request with any number
// of KindStream frames — each echoing the request's method and id, each one
// element of the stream — terminated by exactly one KindResponse (clean end)
// or KindError frame for the same id. Stream frames interleave freely with
// the connection's other traffic; flow control is credit-based at the method
// layer (WCredit), so a slow stream consumer never stalls the shared
// connection.
//
// A connection starts with a 4-byte preamble from the client, "TK" ver 0x00,
// answered by the server with its own preamble — the version negotiation
// (both sides currently speak only Version; a mismatch closes the
// connection with ErrBadVersion). See PROTOCOL.md for the full reference.

// Version is the protocol version spoken by this build.
const Version = 1

// Frame kinds.
const (
	KindRequest  byte = 1 // request: body leads with a u64be deadline
	KindResponse byte = 2 // successful response: body is the method's result
	KindError    byte = 3 // error response: body is code:uvarint msg:str
	KindStream   byte = 4 // one pushed element of a streaming response
)

// MaxFrameBytes bounds one frame's payload (ver through body). Frames
// declaring a larger length are rejected before any allocation — the
// decoder's defence against absurd length prefixes from corrupt or
// malicious peers.
const MaxFrameBytes = 16 << 20

// frameHeaderBytes is the fixed part after the length prefix:
// ver + kind + method + id.
const frameHeaderBytes = 1 + 1 + 1 + 8

// Framing errors. ReadFrame returns these (wrapped with detail) for
// malformed input; connection-level I/O errors pass through untouched.
var (
	ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")
	ErrBadFrame      = errors.New("rpc: malformed frame")
	ErrBadVersion    = errors.New("rpc: protocol version mismatch")
	ErrBadPreamble   = errors.New("rpc: bad connection preamble")
)

// Frame is one decoded protocol frame.
type Frame struct {
	Ver    byte
	Kind   byte
	Method byte
	ID     uint64
	Body   []byte
}

// AppendFrame appends f's encoding to dst and returns the extended slice.
// It fails only when the body exceeds MaxFrameBytes.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	dst, err := appendFrameHeader(dst, f.Ver, f.Kind, f.Method, f.ID, len(f.Body))
	if err != nil {
		return dst, err
	}
	return append(dst, f.Body...), nil
}

// appendFrameHeader appends the length prefix and header of a frame whose
// body will be bodyLen bytes; the caller appends the body.
func appendFrameHeader(dst []byte, ver, kind, method byte, id uint64, bodyLen int) ([]byte, error) {
	n := frameHeaderBytes + bodyLen
	if n > MaxFrameBytes {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, ver, kind, method)
	return binary.BigEndian.AppendUint64(dst, id), nil
}

// ReadFrame reads and decodes one frame from r. The returned frame's Body
// aliases a fresh allocation bounded by the declared length, which is
// validated against MaxFrameBytes before allocating. Version and kind are
// validated here so every caller sees only well-formed frames.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4 + frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if n < frameHeaderBytes {
		return Frame{}, fmt.Errorf("%w: declared %d bytes, need at least %d", ErrBadFrame, n, frameHeaderBytes)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	f := Frame{
		Ver:    hdr[4],
		Kind:   hdr[5],
		Method: hdr[6],
		ID:     binary.BigEndian.Uint64(hdr[7:15]),
	}
	if f.Ver != Version {
		return Frame{}, fmt.Errorf("%w: frame version %d, speak %d", ErrBadVersion, f.Ver, Version)
	}
	if f.Kind != KindRequest && f.Kind != KindResponse && f.Kind != KindError && f.Kind != KindStream {
		return Frame{}, fmt.Errorf("%w: kind %d", ErrBadFrame, f.Kind)
	}
	if body := int(n) - frameHeaderBytes; body > 0 {
		f.Body = make([]byte, body)
		if _, err := io.ReadFull(r, f.Body); err != nil {
			return Frame{}, fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
		}
	}
	return f, nil
}

// WritePreamble writes the 4-byte connection preamble: 'T' 'K' version 0x00.
func WritePreamble(w io.Writer) error {
	_, err := w.Write([]byte{'T', 'K', Version, 0})
	return err
}

// ReadPreamble reads and validates the peer's preamble, returning the
// version it speaks. The magic and reserved byte must match; the version is
// checked against Version (the only one this build speaks).
func ReadPreamble(r io.Reader) (byte, error) {
	var p [4]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadPreamble, err)
	}
	if p[0] != 'T' || p[1] != 'K' || p[3] != 0 {
		return 0, fmt.Errorf("%w: magic %q reserved 0x%02x", ErrBadPreamble, p[:2], p[3])
	}
	if p[2] != Version {
		return p[2], fmt.Errorf("%w: peer speaks %d, this build speaks %d", ErrBadVersion, p[2], Version)
	}
	return p[2], nil
}
