// Package compress provides the per-block codec layer of store-file format
// v2: a tiny codec interface, a pass-through None codec, and a hand-rolled
// stdlib-only implementation of the snappy block format. Store files pick a
// codec per file at write time; every block carries its codec ID on disk so
// a block that did not shrink is stored raw (the writer's fallback) without
// ambiguity at read time.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec IDs, stable on-disk values (one byte precedes every v2 block).
const (
	IDNone   byte = 0
	IDSnappy byte = 1
)

// Errors.
var (
	// ErrCorrupt reports undecodable compressed input.
	ErrCorrupt = errors.New("compress: corrupt input")
	// ErrUnknownCodec reports an unregistered codec ID or name.
	ErrUnknownCodec = errors.New("compress: unknown codec")
)

// Codec encodes and decodes one block. Implementations are stateless and
// safe for concurrent use.
type Codec interface {
	// ID is the codec's stable one-byte on-disk identifier.
	ID() byte
	// Name is the codec's human-readable name ("none", "snappy").
	Name() string
	// Encode appends the encoded form of src to dst and returns the
	// result. Encoding never fails; it may expand incompressible input.
	Encode(dst, src []byte) []byte
	// Decode appends the decoded form of src to dst and returns the
	// result, or ErrCorrupt-wrapped failure for malformed input.
	Decode(dst, src []byte) ([]byte, error)
}

// None is the identity codec.
type None struct{}

func (None) ID() byte     { return IDNone }
func (None) Name() string { return "none" }

func (None) Encode(dst, src []byte) []byte { return append(dst, src...) }

func (None) Decode(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// Snappy implements the snappy block format (varint uncompressed length
// followed by a literal/copy tag stream) with a greedy hash-table matcher.
// The encoder emits only literal and 2-byte-offset copy elements; the
// decoder handles every element the format defines, so any conforming
// snappy stream decodes.
type Snappy struct{}

func (Snappy) ID() byte     { return IDSnappy }
func (Snappy) Name() string { return "snappy" }

// ForID resolves a codec from its on-disk ID.
func ForID(id byte) (Codec, error) {
	switch id {
	case IDNone:
		return None{}, nil
	case IDSnappy:
		return Snappy{}, nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
}

// Snappy element tags (low two bits of the first element byte).
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03
)

const (
	// maxBlockLen bounds the uncompressed length Decode will accept: a
	// corrupted preamble must not make the decoder attempt a huge
	// allocation. Store-file blocks are ~4 KiB; 16 MiB is generous.
	maxBlockLen = 16 << 20

	// hashTableBits sizes the encoder's match table.
	hashTableBits = 14
	hashTableSize = 1 << hashTableBits

	// minMatch is the shortest match worth a copy element.
	minMatch = 4
)

// hash4 hashes the 4 bytes at src[i:] into the match table index space.
func hash4(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - hashTableBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// Encode appends the snappy encoding of src to dst.
func (Snappy) Encode(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < minMatch {
		return emitLiteral(dst, src)
	}

	var table [hashTableSize]int32 // candidate position+1 per hash (0 = empty)
	lit := 0                       // start of the pending literal run
	i := 0
	limit := len(src) - minMatch // last position a match can start at
	for i <= limit {
		h := hash4(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		// A match must be close enough for a 2-byte-offset copy element.
		if cand < 0 || i-cand > 0xffff || load32(src, cand) != load32(src, i) {
			i++
			continue
		}
		// Extend the match as far as it goes.
		length := minMatch
		for i+length < len(src) && src[cand+length] == src[i+length] {
			length++
		}
		dst = emitLiteral(dst, src[lit:i])
		dst = emitCopy(dst, i-cand, length)
		i += length
		lit = i
	}
	return emitLiteral(dst, src[lit:])
}

// emitLiteral appends one literal element (or nothing for an empty run).
func emitLiteral(dst, lit []byte) []byte {
	n := len(lit)
	if n == 0 {
		return dst
	}
	switch {
	case n <= 60:
		dst = append(dst, byte(n-1)<<2|tagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n-1))
	case n < 1<<16:
		dst = append(dst, 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8))
	case n < 1<<24:
		dst = append(dst, 62<<2|tagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16))
	default:
		dst = append(dst, 63<<2|tagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16), byte((n-1)>>24))
	}
	return append(dst, lit...)
}

// emitCopy appends copy elements covering length bytes at the given offset
// (1 <= offset <= 0xffff), splitting runs longer than one element's limit.
func emitCopy(dst []byte, offset, length int) []byte {
	// The 2-byte-offset element encodes lengths 1..64; longer matches
	// split. A final fragment of 1..3 bytes is legal in the format even
	// though the encoder never *finds* matches that short.
	for length > 64 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	return append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}

// Decode appends the decoded form of src to dst. Every offset, length, and
// bound is validated; malformed input yields ErrCorrupt, never a panic or
// over-read.
func (Snappy) Decode(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad length preamble", ErrCorrupt)
	}
	if want > maxBlockLen {
		return dst, fmt.Errorf("%w: block length %d too large", ErrCorrupt, want)
	}
	src = src[n:]
	base := len(dst)
	if cap(dst)-base < int(want) {
		grown := make([]byte, base, base+int(want))
		copy(grown, dst)
		dst = grown
	}
	for len(src) > 0 {
		tag := src[0]
		var length, offset int
		switch tag & 0x03 {
		case tagLiteral:
			length = int(tag>>2) + 1
			hdr := 1
			if length > 60 {
				extra := length - 60 // 1..4 length bytes follow
				if len(src) < 1+extra {
					return dst, fmt.Errorf("%w: truncated literal header", ErrCorrupt)
				}
				length = 0
				for j := extra; j > 0; j-- {
					length = length<<8 | int(src[j])
				}
				length++
				hdr = 1 + extra
			}
			if length > len(src)-hdr {
				return dst, fmt.Errorf("%w: literal overruns input", ErrCorrupt)
			}
			if len(dst)-base+length > int(want) {
				return dst, fmt.Errorf("%w: output overruns declared length", ErrCorrupt)
			}
			dst = append(dst, src[hdr:hdr+length]...)
			src = src[hdr+length:]
			continue
		case tagCopy1:
			if len(src) < 2 {
				return dst, fmt.Errorf("%w: truncated copy1", ErrCorrupt)
			}
			length = int(tag>>2&0x07) + 4
			offset = int(tag>>5)<<8 | int(src[1])
			src = src[2:]
		case tagCopy2:
			if len(src) < 3 {
				return dst, fmt.Errorf("%w: truncated copy2", ErrCorrupt)
			}
			length = int(tag>>2) + 1
			offset = int(binary.LittleEndian.Uint16(src[1:3]))
			src = src[3:]
		case tagCopy4:
			if len(src) < 5 {
				return dst, fmt.Errorf("%w: truncated copy4", ErrCorrupt)
			}
			length = int(tag>>2) + 1
			o := binary.LittleEndian.Uint32(src[1:5])
			if o > maxBlockLen {
				return dst, fmt.Errorf("%w: copy4 offset %d", ErrCorrupt, o)
			}
			offset = int(o)
			src = src[5:]
		}
		if offset <= 0 || offset > len(dst)-base {
			return dst, fmt.Errorf("%w: copy offset %d outside window", ErrCorrupt, offset)
		}
		if len(dst)-base+length > int(want) {
			return dst, fmt.Errorf("%w: output overruns declared length", ErrCorrupt)
		}
		// Byte-at-a-time copy: overlapping copies (offset < length) repeat
		// the pattern, which is the format's RLE idiom.
		pos := len(dst) - offset
		for j := 0; j < length; j++ {
			dst = append(dst, dst[pos+j])
		}
	}
	if len(dst)-base != int(want) {
		return dst, fmt.Errorf("%w: decoded %d bytes, declared %d", ErrCorrupt, len(dst)-base, want)
	}
	return dst, nil
}
