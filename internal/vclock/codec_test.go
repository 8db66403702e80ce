package vclock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripBinary(t *testing.T) {
	cases := []VC{
		{},
		{0},
		{1, 2, 3},
		{0, 0, 0, 0},
		{1 << 40, 127, 128, 300},
	}
	for _, v := range cases {
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got VC
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
		if v.EncodedSize() != len(data) {
			t.Fatalf("EncodedSize(%v) = %d, want %d", v, v.EncodedSize(), len(data))
		}
	}
}

func TestDecodeVCConsumed(t *testing.T) {
	v := VC{5, 6, 7}
	buf := v.AppendBinary(nil)
	buf = append(buf, 0xAA, 0xBB) // trailing junk
	got, n, err := DecodeVC(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("decode = %v", got)
	}
	if n != len(buf)-2 {
		t.Fatalf("consumed %d, want %d", n, len(buf)-2)
	}
}

func TestUnmarshalTrailing(t *testing.T) {
	buf := (VC{1}).AppendBinary(nil)
	buf = append(buf, 0x00)
	var v VC
	if err := v.UnmarshalBinary(buf); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := (VC{1, 200, 3}).AppendBinary(nil)
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeVC(full[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
}

func TestDecodeAbsurdDimension(t *testing.T) {
	// Claim dimension 2^40 with a 6-byte buffer.
	buf := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, _, err := DecodeVC(buf); err == nil {
		t.Fatal("expected error on absurd dimension")
	}
}

func TestDecodeDimensionCap(t *testing.T) {
	// A long hostile frame may pass the ≥1-byte-per-component heuristic
	// while still declaring an enormous clock; the hard cap rejects it.
	buf := binary.AppendUvarint(nil, MaxDecodeDim+1)
	buf = append(buf, make([]byte, MaxDecodeDim+1)...)
	if _, _, err := DecodeVC(buf); !errors.Is(err, ErrDimension) {
		t.Fatalf("DecodeVC above cap: %v", err)
	}
	if _, _, err := DecodeStab(buf); !errors.Is(err, ErrDimension) {
		t.Fatalf("DecodeStab above cap: %v", err)
	}
	// Exactly at the cap is legal.
	at := New(MaxDecodeDim).AppendBinary(nil)
	if _, _, err := DecodeVC(at); err != nil {
		t.Fatalf("DecodeVC at cap: %v", err)
	}
}

func TestMarshalOneAllocation(t *testing.T) {
	// Components past two varint bytes used to overflow the old 1+2*len
	// capacity hint and force a regrow; sizing from EncodedSize makes
	// MarshalBinary exactly one allocation for any magnitude.
	v := VC{1 << 40, 1 << 60, 127, 128, 1 << 20, 0, 3}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("MarshalBinary allocs = %v, want 1", allocs)
	}
}

func TestStabRoundTrip(t *testing.T) {
	cases := []VC{
		{},
		{0},
		{5, 5, 5, 5},       // fully stable: floor only, no residuals
		{9, 9, 9, 12},      // one leader
		{0, 3, 0, 7},       // floor zero
		{1 << 40, 1, 1, 1}, // wide leader
	}
	for _, v := range cases {
		buf := AppendStab(nil, v)
		if len(buf) != StabSize(v) {
			t.Fatalf("StabSize(%v) = %d, emitted %d", v, StabSize(v), len(buf))
		}
		got, n, err := DecodeStab(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode %v: n=%d err=%v", v, n, err)
		}
		if !got.Equal(v) {
			t.Fatalf("stab round trip %v -> %v", v, got)
		}
	}
}

func TestQuickStabRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(32)
		v := New(n)
		floor := uint64(rng.Intn(1 << 20))
		for i := range v {
			v[i] = floor
			if rng.Intn(4) == 0 {
				v[i] += uint64(rng.Intn(1000))
			}
		}
		buf := AppendStab(nil, v)
		got, k, err := DecodeStab(buf)
		return err == nil && k == len(buf) && got.Equal(v) && len(buf) == StabSize(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStabDecodeErrors(t *testing.T) {
	full := AppendStab(nil, VC{3, 3, 9, 3})
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeStab(full[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
	// dim=2, floor=1, nz=3 > dim.
	if _, _, err := DecodeStab([]byte{2, 1, 3, 0, 1, 1, 1}); err == nil {
		t.Fatal("expected residual-count error")
	}
	// dim=2, floor=0, nz=1, residual index 5 out of range.
	if _, _, err := DecodeStab([]byte{2, 0, 1, 5, 1}); err == nil {
		t.Fatal("expected residual-index error")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	base := VC{3, 0, 9, 1}
	v := VC{3, 5, 9, 4}
	buf := v.AppendDelta(nil, base)
	got, n, err := DecodeDelta(buf, base)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !got.Equal(v) {
		t.Fatalf("delta round trip = %v, want %v", got, v)
	}
	// An equal clock encodes as a single zero byte.
	if same := base.AppendDelta(nil, base); !bytes.Equal(same, []byte{0}) {
		t.Fatalf("identity delta = %v", same)
	}
}

// A nil base is the zero clock of v's dimension, and encoding against
// it allocates nothing beyond dst.
func TestDeltaNilBase(t *testing.T) {
	v := VC{0, 5, 0, 1 << 40}
	want := v.AppendDelta(nil, New(len(v)))
	if got := v.AppendDelta(nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("delta against nil = %v, against zero = %v", got, want)
	}
	dst := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { dst = v.AppendDelta(dst[:0], nil) }); n != 0 {
		t.Fatalf("%v allocations per delta against nil, want 0", n)
	}
}

func TestDeltaPanicsOnRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when base exceeds value")
		}
	}()
	(VC{1, 0}).AppendDelta(nil, VC{2, 0})
}

func TestDeltaBadIndex(t *testing.T) {
	// count=1, index=7, delta=1 against dimension-2 base.
	buf := []byte{1, 7, 1}
	if _, _, err := DecodeDelta(buf, VC{0, 0}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 9)
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := range v {
			v[i] = uint64(rng.Int63n(1 << 30))
		}
		buf := v.AppendBinary(nil)
		got, k, err := DecodeVC(buf)
		return err == nil && k == len(buf) && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		base := New(n)
		v := New(n)
		for i := range v {
			base[i] = uint64(rng.Intn(100))
			v[i] = base[i] + uint64(rng.Intn(5))
		}
		buf := v.AppendDelta(nil, base)
		got, k, err := DecodeDelta(buf, base)
		return err == nil && k == len(buf) && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	x := quickVC(16, 1)
	y := quickVC(16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkCompare(b *testing.B) {
	x := quickVC(16, 1)
	y := quickVC(16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Compare(y)
	}
}

func BenchmarkEncode(b *testing.B) {
	x := quickVC(16, 1)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = x.AppendBinary(buf[:0])
	}
}
