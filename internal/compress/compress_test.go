package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, c Codec, src []byte) []byte {
	t.Helper()
	enc := c.Encode(nil, src)
	dec, err := c.Decode(nil, enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", c.Name(), len(src), len(dec))
	}
	return enc
}

func TestRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte(strings.Repeat("rowkey-0001|field0|value-payload;", 200)),
		bytes.Repeat([]byte{0}, 70000),
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 4096)
	rng.Read(random)
	cases = append(cases, random)

	for _, c := range []Codec{None{}, Snappy{}} {
		for i, src := range cases {
			enc := roundTrip(t, c, src)
			_ = enc
			_ = i
		}
	}
}

func TestSnappyCompresses(t *testing.T) {
	src := []byte(strings.Repeat("row00042field0value-abcdefgh", 300))
	enc := Snappy{}.Encode(nil, src)
	if len(enc) >= len(src)/2 {
		t.Fatalf("repetitive input barely compressed: %d -> %d", len(src), len(enc))
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	src := []byte(strings.Repeat("xyz", 100))
	enc := Snappy{}.Encode(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("Encode clobbered dst prefix")
	}
	dec, err := Snappy{}.Decode(append([]byte(nil), prefix...), enc[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, append(prefix, src...)) {
		t.Fatal("Decode did not append to dst")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox ", 100))
	enc := Snappy{}.Encode(nil, src)

	cases := map[string][]byte{
		"empty":            nil,
		"truncated tail":   enc[:len(enc)-5],
		"truncated header": enc[:1],
		"huge preamble":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"orphan copy":      {4, 3<<2 | tagCopy2, 1, 0}, // copy before any output
		"zero offset":      {8, 0<<2 | tagLiteral, 'a', 3<<2 | tagCopy2, 0, 0},
		"offset too far":   {8, 0<<2 | tagLiteral, 'a', 3<<2 | tagCopy2, 9, 0},
		"literal overrun":  {100, 59<<2 | tagLiteral, 'a', 'b'},
		"declared short":   append([]byte{1}, enc[1:]...),
		"trailing garbage": append(append([]byte(nil), enc...), 0x00, 0x00),
		"truncated copy1":  {8, 0<<2 | tagLiteral, 'a', tagCopy1},
		"truncated copy4":  {8, 0<<2 | tagLiteral, 'a', tagCopy4, 1, 0},
		"truncated varlit": {200, 61<<2 | tagLiteral, 0xff},
		"output overdeclared": func() []byte {
			// Valid elements producing more than the declared length.
			b := []byte{1}
			b = append(b, 3<<2|tagLiteral, 'a', 'b', 'c', 'd')
			return b
		}(),
	}
	for name, b := range cases {
		if dec, err := (Snappy{}).Decode(nil, b); err == nil {
			t.Errorf("%s: corruption accepted (%d bytes out)", name, len(dec))
		}
	}
}

func TestForIDAndName(t *testing.T) {
	for _, c := range []Codec{None{}, Snappy{}} {
		got, err := ForID(c.ID())
		if err != nil || got.Name() != c.Name() {
			t.Fatalf("ForID(%d): %v %v", c.ID(), got, err)
		}
	}
	if _, err := ForID(200); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func FuzzSnappyRoundTrip(f *testing.F) {
	f.Add([]byte("hello hello hello hello"))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{0xab}, 1000))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := Snappy{}.Encode(nil, src)
		dec, err := Snappy{}.Decode(nil, enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(dec))
		}
	})
}

func FuzzSnappyDecode(f *testing.F) {
	f.Add(Snappy{}.Encode(nil, []byte("seed seed seed")))
	f.Add([]byte{0x04, 0x0c, 'a', 'b', 'c', 'd'})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Must never panic or over-allocate; errors are fine.
		dec, err := Snappy{}.Decode(nil, b)
		if err == nil && len(dec) > maxBlockLen {
			t.Fatalf("decoded %d bytes past the cap", len(dec))
		}
	})
}
