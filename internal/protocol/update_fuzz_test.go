package protocol

import (
	"testing"

	"repro/internal/history"
	"repro/internal/vclock"
)

// The inter-replica decoders read what a peer's socket delivers
// (transport.TCPNet) and what a journal segment holds: like the serving
// tier's wire decoders they must fail with an error on any byte string,
// never panic, never read past the input, never build a clock above
// vclock.MaxDecodeDim, and whatever they accept must re-encode to
// something that decodes back equal.

// fuzzUpdates is a stream one link might carry: clocks that grow a
// little per message (delta's case), a far-ahead sparse clock (stab's),
// a marker with no clock, a dimension change, forwarded-read frames and
// a catch-up summary.
func fuzzUpdates() []Update {
	return []Update{
		{ID: history.WriteID{Proc: 0, Seq: 1}, Var: 2, Val: 7, Clock: vclock.VC{1, 0, 0, 0}},
		{ID: history.WriteID{Proc: 1, Seq: 1}, Var: 0, Val: -3, Clock: vclock.VC{1, 1, 0, 0}, Prev: history.WriteID{Proc: 0, Seq: 1}},
		{ID: history.WriteID{Proc: 1, Seq: 2}, Var: 0, Val: 1 << 40, Clock: vclock.VC{1, 2, 0, 0}},
		Marker(2, 5),
		{ID: history.WriteID{Proc: 3, Seq: 900}, Var: 1, Val: 4, Clock: vclock.VC{900, 900, 901, 900}},
		{ID: history.WriteID{Proc: 0, Seq: 2}, Var: 3, Val: 9, Clock: vclock.VC{2, 2, 0, 0, 0, 0, 1, 0}, Round: 3, Slot: 1, BatchSize: 2},
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
		u, n, err := DecodeUpdate(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if u.Clock.Len() > vclock.MaxDecodeDim {
			t.Fatalf("decoded a clock of dimension %d, cap %d", u.Clock.Len(), vclock.MaxDecodeDim)
		}
		buf := u.AppendBinary(nil)
		u2, n2, err := DecodeUpdate(buf)
		if err != nil || n2 != len(buf) || !updatesEqual(u, u2) {
			t.Fatalf("re-decode of %+v: %+v, %v (consumed %d of %d)", u, u2, err, n2, len(buf))
		}
	})
}

// FuzzUpdateDecoder feeds one decoder a whole stream, as a connection
// does: every frame it accepts moves its link base, so later frames
// are decoded against state the input chose. What it accepted is then
// sent down a fresh link in delta and in stab mode and must arrive
// unchanged.
func FuzzUpdateDecoder(f *testing.F) {
	for _, s := range updateDecoderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewUpdateDecoder(MetaAuto)
		var accepted []Update
		for rest := data; len(rest) > 0; {
			u, n, clockLen, err := dec.Decode(rest)
			if err != nil {
				break
			}
			if n <= 0 || n > len(rest) || clockLen < 0 || clockLen > n {
				t.Fatalf("consumed %d (clock %d) of %d bytes", n, clockLen, len(rest))
			}
			if u.Clock.Len() > vclock.MaxDecodeDim {
				t.Fatalf("decoded a clock of dimension %d, cap %d", u.Clock.Len(), vclock.MaxDecodeDim)
			}
			accepted = append(accepted, u)
			rest = rest[n:]
		}
		for _, mode := range []MetaMode{MetaDelta, MetaStab} {
			buf := encodeStream(mode, accepted)
			back := NewUpdateDecoder(mode)
			for i, u := range accepted {
				u2, n, _, err := back.Decode(buf)
				if err != nil || !updatesEqual(u, u2) {
					t.Fatalf("%v link, frame %d: sent %+v, got %+v, %v", mode, i, u, u2, err)
				}
				buf = buf[n:]
			}
			if len(buf) != 0 {
				t.Fatalf("%v link: %d bytes left over", mode, len(buf))
			}
		}
	})
}
