package kv

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Key
		want int
	}{
		{"equal", "abc", "abc", 0},
		{"less", "abc", "abd", -1},
		{"greater", "b", "a", 1},
		{"prefix", "ab", "abc", -1},
		{"empty vs nonempty", "", "a", -1},
		{"both empty", "", "", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
			if got := tt.a.Less(tt.b); got != (tt.want < 0) {
				t.Errorf("Less(%q,%q) = %v, want %v", tt.a, tt.b, got, tt.want < 0)
			}
		})
	}
}

func TestCompareCells(t *testing.T) {
	tests := []struct {
		name string
		a, b Cell
		want int
	}{
		{"row order", Cell{Row: "a", Column: "c", TS: 1}, Cell{Row: "b", Column: "c", TS: 1}, -1},
		{"column order", Cell{Row: "a", Column: "a", TS: 1}, Cell{Row: "a", Column: "b", TS: 1}, -1},
		{"newer first", Cell{Row: "a", Column: "c", TS: 9}, Cell{Row: "a", Column: "c", TS: 1}, -1},
		{"older second", Cell{Row: "a", Column: "c", TS: 1}, Cell{Row: "a", Column: "c", TS: 9}, 1},
		{"identical", Cell{Row: "a", Column: "c", TS: 5}, Cell{Row: "a", Column: "c", TS: 5}, 0},
		{"row beats ts", Cell{Row: "a", Column: "c", TS: 1}, Cell{Row: "b", Column: "c", TS: 9}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CompareCells(tt.a, tt.b); got != tt.want {
				t.Errorf("CompareCells(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestKeyRangeContains(t *testing.T) {
	tests := []struct {
		name string
		r    KeyRange
		k    Key
		want bool
	}{
		{"inside", KeyRange{Start: "b", End: "d"}, "c", true},
		{"at start", KeyRange{Start: "b", End: "d"}, "b", true},
		{"at end excluded", KeyRange{Start: "b", End: "d"}, "d", false},
		{"below", KeyRange{Start: "b", End: "d"}, "a", false},
		{"unbounded below", KeyRange{End: "d"}, "", true},
		{"unbounded above", KeyRange{Start: "b"}, "zzz", true},
		{"full range", KeyRange{}, "anything", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Contains(tt.k); got != tt.want {
				t.Errorf("%v.Contains(%q) = %v, want %v", tt.r, tt.k, got, tt.want)
			}
		})
	}
}

func TestKeyRangeOverlaps(t *testing.T) {
	tests := []struct {
		name string
		a, b KeyRange
		want bool
	}{
		{"disjoint", KeyRange{Start: "a", End: "b"}, KeyRange{Start: "b", End: "c"}, false},
		{"overlap", KeyRange{Start: "a", End: "c"}, KeyRange{Start: "b", End: "d"}, true},
		{"nested", KeyRange{Start: "a", End: "z"}, KeyRange{Start: "m", End: "n"}, true},
		{"full vs any", KeyRange{}, KeyRange{Start: "q", End: "r"}, true},
		{"touching reversed", KeyRange{Start: "b", End: "c"}, KeyRange{Start: "a", End: "b"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Overlaps(tt.b); got != tt.want {
				t.Errorf("%v.Overlaps(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Overlaps(tt.a); got != tt.want {
				t.Errorf("overlap not symmetric for %v,%v", tt.a, tt.b)
			}
		})
	}
}

func TestWriteSetClone(t *testing.T) {
	w := WriteSet{
		TxnID:    7,
		ClientID: "c1",
		CommitTS: 42,
		Updates: []Update{
			{Table: "t", Row: "r1", Column: "c", Value: []byte("v1")},
			{Table: "t", Row: "r2", Column: "c", Value: []byte("v2"), Tombstone: true},
		},
	}
	c := w.Clone()
	if !reflect.DeepEqual(w, c) {
		t.Fatalf("clone differs: %+v vs %+v", w, c)
	}
	c.Updates[0].Value[0] = 'X'
	if w.Updates[0].Value[0] == 'X' {
		t.Fatal("clone shares value backing array with original")
	}
}

func TestWriteSetTables(t *testing.T) {
	w := WriteSet{Updates: []Update{
		{Table: "a", Row: "r"},
		{Table: "b", Row: "r"},
		{Table: "a", Row: "s"},
	}}
	got := w.Tables()
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Tables() = %v, want [a b]", got)
	}
}

func TestUpdateToKeyValue(t *testing.T) {
	u := Update{Table: "t", Row: "r", Column: "c", Value: []byte("v"), Tombstone: true}
	e := u.ToKeyValue(99)
	if e.TS != 99 || e.Row != "r" || e.Column != "c" || !e.Tombstone {
		t.Fatalf("ToKeyValue produced %+v", e)
	}
}

func TestKeyValueCodecRoundTrip(t *testing.T) {
	tests := []KeyValue{
		{Cell: Cell{Row: "row1", Column: "col", TS: 12}, Value: []byte("hello")},
		{Cell: Cell{Row: "", Column: "", TS: 0}, Value: nil},
		{Cell: Cell{Row: "r", Column: "c", TS: MaxTimestamp}, Value: []byte{0, 1, 2}, Tombstone: true},
	}
	for _, e := range tests {
		b := AppendKeyValue(nil, e)
		got, rest, err := DecodeKeyValue(b)
		if err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v left %d bytes", e, len(rest))
		}
		if got.Cell != e.Cell || got.Tombstone != e.Tombstone || string(got.Value) != string(e.Value) {
			t.Fatalf("round-trip mismatch: %v -> %v", e, got)
		}
	}
}

func TestKeyValueCodecSequence(t *testing.T) {
	var b []byte
	want := make([]KeyValue, 0, 10)
	for i := 0; i < 10; i++ {
		e := KeyValue{Cell: Cell{Row: Key(string(rune('a' + i))), Column: "c", TS: Timestamp(i)}, Value: []byte{byte(i)}}
		want = append(want, e)
		b = AppendKeyValue(b, e)
	}
	for i := 0; i < 10; i++ {
		var got KeyValue
		var err error
		got, b, err = DecodeKeyValue(b)
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if got.Cell != want[i].Cell {
			t.Fatalf("decode #%d = %v, want %v", i, got, want[i])
		}
	}
	if len(b) != 0 {
		t.Fatalf("trailing bytes: %d", len(b))
	}
}

func TestDecodeKeyValueErrors(t *testing.T) {
	if _, _, err := DecodeKeyValue(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := DecodeKeyValue([]byte{0xFF}); err == nil {
		t.Error("bad format byte should fail")
	}
	good := AppendKeyValue(nil, KeyValue{Cell: Cell{Row: "row", Column: "col", TS: 5}, Value: []byte("value")})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeKeyValue(good[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
}

func TestWriteSetCodecRoundTrip(t *testing.T) {
	w := WriteSet{
		TxnID:    123456,
		ClientID: "client-9",
		CommitTS: 789,
		Updates: []Update{
			{Table: "usertable", Row: "user1", Column: "field0", Value: []byte("abc")},
			{Table: "usertable", Row: "user2", Column: "field1", Tombstone: true},
			{Table: "other", Row: "", Column: "", Value: nil},
		},
	}
	got, err := DecodeWriteSet(EncodeWriteSet(w))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.TxnID != w.TxnID || got.ClientID != w.ClientID || got.CommitTS != w.CommitTS {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Updates) != len(w.Updates) {
		t.Fatalf("update count %d, want %d", len(got.Updates), len(w.Updates))
	}
	for i := range w.Updates {
		a, b := got.Updates[i], w.Updates[i]
		if a.Table != b.Table || a.Row != b.Row || a.Column != b.Column ||
			a.Tombstone != b.Tombstone || string(a.Value) != string(b.Value) {
			t.Errorf("update %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestDecodeWriteSetErrors(t *testing.T) {
	if _, err := DecodeWriteSet(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := DecodeWriteSet([]byte{0x42}); err == nil {
		t.Error("bad format should fail")
	}
	good := EncodeWriteSet(WriteSet{
		TxnID: 1, ClientID: "c", CommitTS: 2,
		Updates: []Update{{Table: "t", Row: "r", Column: "c", Value: []byte("v")}},
	})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeWriteSet(good[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
}

func TestWriteSetCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(txnID uint64, client string, ts uint64, n uint8) bool {
		w := WriteSet{TxnID: txnID, ClientID: client, CommitTS: Timestamp(ts)}
		for i := 0; i < int(n%32); i++ {
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			w.Updates = append(w.Updates, Update{
				Table:     "t" + string(rune('a'+rng.Intn(3))),
				Row:       Key(val[:rng.Intn(len(val)+1)]),
				Column:    "f",
				Value:     val,
				Tombstone: rng.Intn(4) == 0,
			})
		}
		got, err := DecodeWriteSet(EncodeWriteSet(w))
		if err != nil {
			return false
		}
		if got.TxnID != w.TxnID || got.ClientID != w.ClientID || got.CommitTS != w.CommitTS ||
			len(got.Updates) != len(w.Updates) {
			return false
		}
		for i := range w.Updates {
			if got.Updates[i].Row != w.Updates[i].Row ||
				string(got.Updates[i].Value) != string(w.Updates[i].Value) ||
				got.Updates[i].Tombstone != w.Updates[i].Tombstone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedSizesAreExact checks the size functions the encoders allocate
// by against the encodings themselves, across every uvarint width boundary.
func TestEncodedSizesAreExact(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		if got, want := UvarintSize(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintSize(%d) = %d, want %d", v, got, want)
		}
	}
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		s := strings.Repeat("x", n)
		e := KeyValue{Cell: Cell{Row: Key(s), Column: s, TS: Timestamp(n) << 50}, Value: []byte(s)}
		if got, want := KeyValueSize(e), len(AppendKeyValue(nil, e)); got != want {
			t.Errorf("KeyValueSize(len %d) = %d, want %d", n, got, want)
		}
		w := WriteSet{TxnID: uint64(n) << 40, ClientID: s, CommitTS: MaxTimestamp,
			Updates: []Update{{Table: s, Row: Key(s), Column: s, Value: []byte(s)}, {Tombstone: true}}}
		enc := EncodeWriteSet(w)
		if len(enc) != WriteSetSize(w) || cap(enc) != len(enc) {
			t.Errorf("write-set with %d-byte fields: len %d cap %d, WriteSetSize %d", n, len(enc), cap(enc), WriteSetSize(w))
		}
	}
}

func TestKeyValueHeapSize(t *testing.T) {
	small := KeyValue{Cell: Cell{Row: "r", Column: "c"}}
	big := KeyValue{Cell: Cell{Row: "r", Column: "c"}, Value: make([]byte, 1000)}
	if small.HeapSize() <= 0 {
		t.Error("heap size must be positive")
	}
	if big.HeapSize() <= small.HeapSize() {
		t.Error("bigger value must report bigger heap size")
	}
}

func TestStrings(t *testing.T) {
	e := KeyValue{Cell: Cell{Row: "r", Column: "c", TS: 3}, Value: []byte("v")}
	if e.String() == "" {
		t.Error("String must be non-empty")
	}
	d := KeyValue{Cell: Cell{Row: "r", Column: "c", TS: 3}, Tombstone: true}
	if d.String() == e.String() {
		t.Error("tombstone must render differently")
	}
	if (KeyRange{}).String() != "[-inf,+inf)" {
		t.Errorf("KeyRange render: %s", (KeyRange{}).String())
	}
}
