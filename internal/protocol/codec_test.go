package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/history"
	"repro/internal/vclock"
)

func TestUpdateRoundTrip(t *testing.T) {
	cases := []Update{
		{},
		{
			ID:  history.WriteID{Proc: 2, Seq: 17},
			Var: 3, Val: -42,
			Clock: vclock.VC{1, 0, 9},
			Prev:  history.WriteID{Proc: 1, Seq: 3},
		},
		Marker(4, 7), // negative Seq, Var -1, batch size 0
		{
			ID:  history.WriteID{Proc: 0, Seq: 1},
			Var: 0, Val: 1 << 40,
			Clock: tokenKey(12, 3, 5),
		},
		{ID: history.WriteID{Proc: 1}, Val: 2, Clock: vclock.VC{3, 0}, Summary: true},
	}
	for _, u := range cases {
		data, err := u.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", u, err)
		}
		var got Update
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", u, err)
		}
		if got.ID != u.ID || got.Var != u.Var || got.Val != u.Val ||
			got.Prev != u.Prev || got.ReadReq != u.ReadReq ||
			got.ReadReply != u.ReadReply || got.Summary != u.Summary {
			t.Fatalf("round trip: got %+v, want %+v", got, u)
		}
		if (u.Clock == nil) != (got.Clock == nil) && u.Clock.Len() > 0 {
			t.Fatalf("clock presence changed: %v vs %v", u.Clock, got.Clock)
		}
		if u.Clock.Len() > 0 && !got.Clock.Equal(u.Clock) {
			t.Fatalf("clock round trip: %v vs %v", got.Clock, u.Clock)
		}
	}
}

func TestUpdateDecodeTruncated(t *testing.T) {
	u := Update{
		ID: history.WriteID{Proc: 1, Seq: 300}, Var: 2, Val: 99,
		Clock: vclock.VC{5, 6, 700},
	}
	full := u.AppendBinary(nil)
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeUpdate(full[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded", i)
		}
	}
}

func TestUpdateUnmarshalTrailing(t *testing.T) {
	data := (Update{}).AppendBinary(nil)
	data = append(data, 0)
	var u Update
	if err := u.UnmarshalBinary(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUpdateDecodeConsumed(t *testing.T) {
	a := Update{ID: history.WriteID{Proc: 0, Seq: 1}, Val: 7, Clock: vclock.VC{1, 0}}
	b := Update{ID: history.WriteID{Proc: 1, Seq: 1}, Val: 8, Clock: vclock.VC{0, 1}}
	buf := b.AppendBinary(a.AppendBinary(nil))
	g1, n1, err := DecodeUpdate(buf)
	if err != nil || g1.Val != 7 {
		t.Fatalf("first: %v %v", g1, err)
	}
	g2, n2, err := DecodeUpdate(buf[n1:])
	if err != nil || g2.Val != 8 {
		t.Fatalf("second: %v %v", g2, err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d of %d", n1+n2, len(buf))
	}
}

func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(proc, seq uint8, vr uint8, val int64, c0, c1, c2 uint16, prevProc, prevSeq int8) bool {
		u := Update{
			ID:    history.WriteID{Proc: int(proc), Seq: int(seq)},
			Var:   int(vr),
			Val:   val,
			Clock: vclock.VC{uint64(c0), uint64(c1), uint64(c2)},
			Prev:  history.WriteID{Proc: int(prevProc), Seq: int(prevSeq)},
		}
		data := u.AppendBinary(nil)
		got, n, err := DecodeUpdate(data)
		return err == nil && n == len(data) &&
			got.ID == u.ID && got.Var == u.Var && got.Val == u.Val &&
			got.Prev == u.Prev && got.Clock.Equal(u.Clock)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateMalformedFlags: unknown flag bits, and a Prev bit followed
// by ⊥, are bytes the encoder never writes, so they fail to decode.
func TestUpdateMalformedFlags(t *testing.T) {
	body := Update{ID: history.WriteID{Proc: 1, Seq: 2}, Clock: vclock.VC{0, 2}}.AppendBinary(nil)
	head := body[:len(body)-1] // every field before the flags
	for name, tail := range map[string][]byte{
		"unknown bit 4":   {1 << 4},
		"unknown bit 7":   {0x80, 0x01},
		"flagged ⊥ Prev":  {flagPrev, 0, 0},
		"flagged ⊥ reply": {flagReadReply | flagPrev, 0, 0},
	} {
		data := append(head[:len(head):len(head)], tail...)
		if _, _, err := DecodeUpdate(data); !errors.Is(err, ErrUpdateTruncated) {
			t.Errorf("%s: %x decoded with %v, want ErrUpdateTruncated", name, data, err)
		}
	}
}

// TestMaxUpdateSizeFits encodes the largest legal update, every integer
// at its widest and a clock at vclock.MaxDecodeDim, in every metadata
// codec mode: it must fit MaxUpdateSize.
func TestMaxUpdateSizeFits(t *testing.T) {
	clock := vclock.New(vclock.MaxDecodeDim)
	for i := range clock {
		clock[i] = math.MaxUint64 - uint64(i)
	}
	u := Update{
		ID:  history.WriteID{Proc: math.MinInt64, Seq: math.MinInt64},
		Var: math.MinInt64, Val: math.MinInt64, Clock: clock,
		Prev:    history.WriteID{Proc: math.MinInt64, Seq: math.MinInt64},
		ReadReq: true, ReadReply: true, Summary: true,
	}
	for _, mode := range []MetaMode{MetaOff, MetaDelta, MetaStab, MetaAuto} {
		enc := NewUpdateEncoder(mode)
		for i := 0; i < 2; i++ { // the second frame may ride a delta
			if buf, _ := enc.Append(nil, u); len(buf) > MaxUpdateSize {
				t.Errorf("%v frame %d: %d bytes, MaxUpdateSize %d", mode, i, len(buf), MaxUpdateSize)
			}
		}
	}
}

// TestUpdateLayout pins the update's size in memory and on the wire: it
// is copied by value through transport and driver, and encoded into
// every WAL entry, snapshot and frame. An OptP write at P = 8 ships a
// variable, a value and Write_co, and nothing else: this one takes 14
// bytes — ID 2, var 1, val 1, clock 9 (dimension and eight components)
// and flags 1.
func TestUpdateLayout(t *testing.T) {
	if size := unsafe.Sizeof(Update{}); size != 80 {
		t.Errorf("an Update takes %d bytes, want 80", size)
	}
	p := NewOptP(3, 8, 4)
	u, _ := p.LocalWrite(2, 9)
	if !u.Prev.IsBottom() {
		t.Errorf("OptP write carries Prev %v", u.Prev)
	}
	if n := len(u.AppendBinary(nil)); n != 14 {
		t.Errorf("an OptP write at P = 8 encodes to %d bytes, want 14", n)
	}
}

// TestCutPointsTyped cuts tokened requests and responses, and updates
// under every metadata codec mode, at every byte: each cut must fail
// with its decoder's sentinels, however deep in a token or clock it
// lands. (A request or response cut just before its optional trace
// trailer decodes; the truncation tests cover that.)
func TestCutPointsTyped(t *testing.T) {
	typed := func(what string, cut int, err error, sentinels ...error) {
		t.Helper()
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return
			}
		}
		t.Fatalf("%s cut at %d: %v wraps none of %v", what, cut, err, sentinels)
	}
	for _, r := range wireRequests() {
		buf := r.AppendBinary(nil)
		for cut := 0; cut < len(buf) && r.Token != nil; cut++ {
			if _, _, err := DecodeRequest(buf[:cut]); err != nil {
				typed(fmt.Sprintf("request %+v", r), cut, err, ErrWireTruncated, ErrWireCorrupt)
			}
		}
	}
	for _, tc := range wireResponses() {
		buf := tc.r.AppendBinary(nil, tc.base)
		for cut := 0; cut < len(buf) && tc.r.Token != nil; cut++ {
			if _, _, err := DecodeResponse(buf[:cut], tc.base); err != nil {
				typed(fmt.Sprintf("response %+v", tc.r), cut, err, ErrWireTruncated, ErrWireCorrupt)
			}
		}
	}
	for _, mode := range []MetaMode{MetaOff, MetaDelta, MetaStab, MetaAuto} {
		enc := NewUpdateEncoder(mode)
		var stream []byte
		start := 0
		for i, u := range fuzzUpdates() {
			stream, _ = enc.Append(stream, u)
			for cut := start; cut < len(stream); cut++ {
				// A decoder that took the frames before this one whole.
				dec := NewUpdateDecoder(mode)
				for rest := stream[:start]; len(rest) > 0; {
					_, n, _, err := dec.Decode(rest)
					if err != nil {
						t.Fatalf("%v: frame before %d: %v", mode, i, err)
					}
					rest = rest[n:]
				}
				_, _, _, err := dec.Decode(stream[start:cut])
				if err == nil {
					t.Fatalf("%v: frame %d cut at %d of %d decoded", mode, i, cut-start, len(stream)-start)
				}
				typed(fmt.Sprintf("%v frame %d", mode, i), cut-start, err, ErrUpdateTruncated, ErrClockResync)
			}
			start = len(stream)
		}
	}
}

// TestMalformedTyped: a varint overflowing 64 bits is malformed, not
// cut short, and a delta clock against the wrong link base is a resync,
// never a truncated update.
func TestMalformedTyped(t *testing.T) {
	over := bytes.Repeat([]byte{0xFF}, 11)
	only := func(what string, err, want, not error) {
		t.Helper()
		if !errors.Is(err, want) || errors.Is(err, not) {
			t.Errorf("%s: %v, want %v and not %v", what, err, want, not)
		}
	}
	_, _, err := DecodeRequest(over)
	only("request", err, ErrWireCorrupt, ErrWireTruncated)
	_, _, err = DecodeResponse(over, nil)
	only("response", err, ErrWireCorrupt, ErrWireTruncated)
	_, _, err = DecodeToken(over, nil)
	only("token", err, ErrWireCorrupt, ErrWireTruncated)
	_, _, err = DecodeUpdate(over)
	only("update", err, ErrUpdateTruncated, ErrClockResync)

	// The second frame of a delta link, decoded with no base and against
	// another link's.
	us := fuzzUpdates()
	second := encodeStream(MetaDelta, us[:2])[len(encodeStream(MetaDelta, us[:1])):]
	for _, prior := range [][]byte{nil, encodeStream(MetaDelta, us[4:5])} {
		dec := NewUpdateDecoder(MetaDelta)
		if _, _, _, err := dec.Decode(prior); len(prior) > 0 && err != nil {
			t.Fatal(err)
		}
		_, _, _, err := dec.Decode(second)
		only(fmt.Sprintf("delta clock after %x", prior), err, ErrClockResync, ErrUpdateTruncated)
	}
}
