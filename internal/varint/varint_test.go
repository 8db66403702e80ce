package varint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var (
	errShort = errors.New("short")
	errBad   = errors.New("bad")
)

func TestReaderFields(t *testing.T) {
	buf := binary.AppendUvarint(nil, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = append(buf, 0xAB, 'h', 'i')
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, 1<<40)
	buf = binary.AppendUvarint(buf, 127)
	r := NewReader(buf, errShort, errBad)
	dst := make([]uint64, 3)
	if u, v, b, s := r.Uvarint(), r.Varint(), r.Byte(), string(r.Bytes(2)); u != 300 || v != -5 || b != 0xAB || s != "hi" {
		t.Fatalf("read %d %d %#x %q", u, v, b, s)
	}
	r.Uvarints(dst)
	if r.Err() != nil || dst[0] != 1 || dst[1] != 1<<40 || dst[2] != 127 || r.Off() != len(buf) {
		t.Fatalf("Uvarints = %v at %d of %d: %v", dst, r.Off(), len(buf), r.Err())
	}
}

// TestReaderLatches: the first failure sticks, and every later read
// returns zero without moving the offset.
func TestReaderLatches(t *testing.T) {
	r := NewReader([]byte{0x80}, errShort, errBad)
	if r.Uvarint() != 0 || !errors.Is(r.Err(), errShort) || r.Off() != 0 {
		t.Fatalf("unterminated uvarint: off %d, %v", r.Off(), r.Err())
	}
	first := r.Err()
	r.Fail(errors.New("later"))
	if r.Varint() != 0 || r.Byte() != 0 || r.Bytes(0) != nil || r.Count(10) != 0 || r.Err() != first || r.Off() != 0 {
		t.Fatalf("reads after a failure moved on: off %d, %v", r.Off(), r.Err())
	}
	dst := []uint64{7}
	if r.Uvarints(dst); dst[0] != 7 {
		t.Fatal("Uvarints wrote after a failure")
	}
}

// TestCountRule: a count above its cap is bad, one above the bytes
// left is short, and one within both is returned.
func TestCountRule(t *testing.T) {
	cases := []struct {
		buf  []byte
		max  int
		want int
		err  error
	}{
		{[]byte{3, 0, 0, 0}, 3, 3, nil},
		{[]byte{3, 0, 0, 0}, 2, 0, errBad},
		{[]byte{3, 0, 0}, 3, 0, errShort},
		{binary.AppendUvarint(nil, 1<<62), 1 << 20, 0, errBad},
		{nil, 1, 0, errShort},
		// Ten continuation bytes may still end in a valid varint; a
		// tenth byte above 1 overflows 64 bits.
		{bytes.Repeat([]byte{0xFF}, 10), 1 << 20, 0, errShort},
		{append(bytes.Repeat([]byte{0xFF}, 9), 2), 1 << 20, 0, errBad},
	}
	for _, tc := range cases {
		r := NewReader(tc.buf, errShort, errBad)
		if got := r.Count(tc.max); got != tc.want || !errors.Is(r.Err(), tc.err) || tc.err == nil && r.Err() != nil {
			t.Errorf("Count(%d) of %x = %d, %v; want %d, %v", tc.max, tc.buf, got, r.Err(), tc.want, tc.err)
		}
	}
}

// TestFailWrapsUnderBad: an error that wraps neither sentinel is
// wrapped under bad, one that wraps either is latched as it is.
func TestFailWrapsUnderBad(t *testing.T) {
	foreign := errors.New("foreign")
	r := NewReader(nil, errShort, errBad)
	r.Fail(foreign)
	if !errors.Is(r.Err(), errBad) || !errors.Is(r.Err(), foreign) {
		t.Fatalf("Fail(foreign) latched %v", r.Err())
	}
	for _, own := range []error{errShort, errBad} {
		r := NewReader(nil, errShort, errBad)
		r.Fail(own)
		if r.Err() != own {
			t.Fatalf("Fail(%v) latched %v", own, r.Err())
		}
	}
	r = NewReader(nil, errShort, errBad)
	r.Stop(foreign)
	if r.Err() != foreign {
		t.Fatalf("Stop(foreign) latched %v", r.Err())
	}
}

// TestOverflowIsBad: a varint overflowing 64 bits is malformed in every
// read, one cut short is short. Each read takes a valid one-byte value
// first, so the failure lands past the start of the buffer.
func TestOverflowIsBad(t *testing.T) {
	reads := map[string]func(*Reader){
		"Uvarint":  func(r *Reader) { r.Uvarint(); r.Uvarint() },
		"Varint":   func(r *Reader) { r.Varint(); r.Varint() },
		"Uvarints": func(r *Reader) { r.Uvarints(make([]uint64, 2)) },
	}
	ff := func(n int, last ...byte) []byte { return append(bytes.Repeat([]byte{0xFF}, n), last...) }
	for name, read := range reads {
		for _, tc := range []struct {
			tail []byte
			want error
		}{
			{ff(11), errBad},      // an eleventh byte
			{ff(9, 0x02), errBad}, // a tenth byte above 1
			{ff(10), errShort},
		} {
			buf := append([]byte{1}, tc.tail...)
			r := NewReader(buf, errShort, errBad)
			if read(&r); !errors.Is(r.Err(), tc.want) || r.Off() != 1 {
				t.Errorf("%s of %x: %v at offset %d, want %v at 1", name, buf, r.Err(), r.Off(), tc.want)
			}
		}
	}
}

func TestBytesBounds(t *testing.T) {
	r := NewReader([]byte("abc"), errShort, errBad)
	if b := r.Bytes(4); b != nil || !errors.Is(r.Err(), errShort) {
		t.Fatalf("Bytes past the end = %q, %v", b, r.Err())
	}
	r = NewReader([]byte("abc"), errShort, errBad)
	if b := r.Bytes(2); string(b) != "ab" || cap(b) != 2 {
		t.Fatalf("Bytes(2) = %q with capacity %d", b, cap(b))
	}
}

// BenchmarkUvarints reads an 8-dimension clock of 3-byte components,
// the loop every clock decoder runs.
func BenchmarkUvarints(b *testing.B) {
	var buf []byte
	for i := 0; i < 8; i++ {
		buf = binary.AppendUvarint(buf, 1<<15+uint64(i))
	}
	dst := make([]uint64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, errShort, errBad)
		r.Uvarints(dst)
	}
}

// TestUvarintsMatchesBinary: Uvarints, which decodes its own bytes,
// agrees with binary.Uvarint on every length and final byte around the
// ten-byte limit: same value, same length, short where it reports 0 and
// bad where it reports an overflow.
func TestUvarintsMatchesBinary(t *testing.T) {
	for n := 0; n <= 11; n++ {
		for _, fill := range []byte{0x80, 0xFF} {
			for _, last := range []int{-1, 0x00, 0x01, 0x02, 0x7F} {
				buf := bytes.Repeat([]byte{fill}, n)
				if last >= 0 {
					buf = append(buf, byte(last))
				}
				want, k := binary.Uvarint(buf)
				dst := []uint64{0}
				r := NewReader(buf, errShort, errBad)
				r.Uvarints(dst)
				switch {
				case k > 0 && (r.Err() != nil || dst[0] != want || r.Off() != k),
					k == 0 && !errors.Is(r.Err(), errShort),
					k < 0 && !errors.Is(r.Err(), errBad):
					t.Errorf("Uvarints(%x) = %d at %d, %v; binary.Uvarint = %d, %d", buf, dst[0], r.Off(), r.Err(), want, k)
				}
			}
		}
	}
}
