package protocol

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/varint/varinttest"
	"repro/internal/vclock"
)

// The inter-replica decoders read what a peer's socket delivers
// (transport.TCPNet) and what a journal segment holds: like the serving
// tier's wire decoders they meet varinttest.Check's contract, failing
// with ErrUpdateTruncated or ErrClockResync. No clock above
// vclock.MaxDecodeDim decodes: its dimension is a count under that cap.

// fuzzUpdates is a stream one link might carry: clocks that grow a
// little per message (delta's case), one with a Prev, a far-ahead
// sparse clock (stab's), a WS-send marker (its clock a three-component
// token key), a dimension change, forwarded-read frames and a catch-up
// summary.
func fuzzUpdates() []Update {
	return []Update{
		{ID: history.WriteID{Proc: 0, Seq: 1}, Var: 2, Val: 7, Clock: vclock.VC{1, 0, 0, 0}},
		{ID: history.WriteID{Proc: 1, Seq: 1}, Var: 0, Val: -3, Clock: vclock.VC{1, 1, 0, 0}, Prev: history.WriteID{Proc: 0, Seq: 1}},
		{ID: history.WriteID{Proc: 1, Seq: 2}, Var: 0, Val: 1 << 40, Clock: vclock.VC{1, 2, 0, 0}},
		Marker(2, 5),
		{ID: history.WriteID{Proc: 3, Seq: 900}, Var: 1, Val: 4, Clock: vclock.VC{900, 900, 901, 900}},
		{ID: history.WriteID{Proc: 0, Seq: 2}, Var: 3, Val: 9, Clock: vclock.VC{2, 2, 0, 0, 0, 0, 1, 0}},
		{ID: history.WriteID{Proc: 2, Seq: -4}, Var: 1, Clock: vclock.VC{2, 2, 1, 0, 0, 0, 1, 0}, ReadReq: true},
		{ID: history.WriteID{Proc: 2, Seq: -4}, Var: 1, Val: 4, Clock: vclock.VC{2, 2, 1, 0, 0, 0, 1, 0}, Prev: history.WriteID{Proc: 3, Seq: 900}, ReadReply: true},
		{ID: history.WriteID{Proc: 1}, Val: 1, Clock: vclock.VC{7, 3, 0, 9}, Summary: true},
	}
}

// encodeStream concatenates the link encoding of us under mode.
func encodeStream(mode MetaMode, us []Update) []byte {
	enc := NewUpdateEncoder(mode)
	var buf []byte
	for _, u := range us {
		buf, _ = enc.Append(buf, u)
	}
	return buf
}

// fuzzJunk is shared by the decoder targets' seeds.
var fuzzJunk = [][]byte{
	{},
	{0x00},
	{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	{0x00, 0x02, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F}, // dimension far above the cap
}

func decodeUpdateSeeds() [][]byte {
	var seeds [][]byte
	for _, u := range fuzzUpdates() {
		seeds = append(seeds, u.AppendBinary(nil))
	}
	return append(seeds, fuzzJunk...)
}

func updateDecoderSeeds() [][]byte {
	var seeds [][]byte
	for _, mode := range []MetaMode{MetaDelta, MetaStab, MetaAuto} {
		seeds = append(seeds, encodeStream(mode, fuzzUpdates()))
	}
	// A delta frame with no base on the link, and one against the wrong base.
	delta := encodeStream(MetaDelta, fuzzUpdates()[:3])
	first := len(encodeStream(MetaDelta, fuzzUpdates()[:1]))
	seeds = append(seeds, delta[first:], append(encodeStream(MetaDelta, fuzzUpdates()[4:5]), delta[first:]...))
	return append(seeds, fuzzJunk...)
}

func FuzzDecodeUpdate(f *testing.F) {
	for _, s := range decodeUpdateSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, ok := varinttest.Check(t, data, DecodeUpdate, func(u Update) []byte { return u.AppendBinary(nil) },
			updatesEqual, ErrUpdateTruncated)
		if ok && u.Clock.Len() > vclock.MaxDecodeDim {
			t.Fatalf("decoded a clock of dimension %d, cap %d", u.Clock.Len(), vclock.MaxDecodeDim)
		}
	})
}

// decodeStream decodes a whole stream with one fresh link decoder, as a
// connection does: every frame it accepts moves the link base, so later
// frames are decoded against state the input chose. It stops at the
// first frame that fails, reporting the frames before it. An error
// matching both sentinels, or a frame whose clock field does not lie
// within its bytes or whose clock is above vclock.MaxDecodeDim, fails t.
func decodeStream(t testing.TB, data []byte) ([]Update, int, error) {
	dec := NewUpdateDecoder(MetaAuto)
	var us []Update
	off := 0
	for off < len(data) {
		u, n, clockLen, err := dec.Decode(data[off:])
		if errors.Is(err, ErrUpdateTruncated) && errors.Is(err, ErrClockResync) {
			t.Fatalf("frame at %d: %v matches both sentinels", off, err)
		}
		if err != nil {
			return us, off, err
		}
		if clockLen < 0 || clockLen > n {
			t.Fatalf("frame at %d: clock field of %d bytes in a %d-byte frame", off, clockLen, n)
		}
		if u.Clock.Len() > vclock.MaxDecodeDim {
			t.Fatalf("frame at %d: decoded a clock of dimension %d, cap %d", off, u.Clock.Len(), vclock.MaxDecodeDim)
		}
		us = append(us, u)
		off += n
	}
	return us, off, nil
}

// FuzzUpdateDecoder holds the link decoder to the contract over the
// whole stream, and over the frames it accepted before failing: sent
// down a fresh link in delta and in stab mode, they arrive unchanged.
func FuzzUpdateDecoder(f *testing.F) {
	for _, s := range updateDecoderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(b []byte) ([]Update, int, error) { return decodeStream(t, b) }
		_, accepted, _ := decode(data)
		for _, mode := range []MetaMode{MetaDelta, MetaStab} {
			enc := func(us []Update) []byte { return encodeStream(mode, us) }
			for _, in := range [][]byte{data, data[:accepted]} {
				varinttest.Check(t, in, decode, enc, updateListsEqual, ErrUpdateTruncated, ErrClockResync)
			}
		}
	})
}

// updateListsEqual compares two decoded streams frame by frame.
func updateListsEqual(a, b []Update) bool {
	return slices.EqualFunc(a, b, updatesEqual)
}
