package vclock

import (
	"testing"

	"repro/internal/varint/varinttest"
)

// decodeClockSeeds are FuzzDecodeClock's seeds: clocks in the dense and
// stab encodings, and hostile dimension declarations around the cap.
func decodeClockSeeds() [][]byte {
	return [][]byte{
		(VC{}).AppendBinary(nil),
		(VC{1, 2, 3}).AppendBinary(nil),
		(VC{1 << 40, 0, 127, 128}).AppendBinary(nil),
		AppendStab(nil, VC{9, 9, 12, 9}),
		{0x80, 0x80, 0x04},                                           // 2^16 exactly (legal)
		{0x81, 0x80, 0x04},                                           // 2^16 + 1 (over the cap)
		{0xFF, 0xFF, 0xFF, 0x7F},                                     // ~2^28
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, // unterminated varint
	}
}

// The clock decoders face the network (frames arrive off TCP sockets
// and out of WAL segments): every input meets varinttest.Check's
// contract, failing with ErrTruncated or ErrDimension, and no declared
// dimension drives an allocation past MaxDecodeDim. The committed seed
// corpus under testdata/fuzz/FuzzDecodeClock replays on every plain
// `go test` run, so the cap and the past crash shapes are permanent
// regressions.
func FuzzDecodeClock(f *testing.F) {
	for _, s := range decodeClockSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct {
			decode func([]byte) (VC, int, error)
			encode func(VC) []byte
		}{
			{DecodeVC, func(v VC) []byte { return v.AppendBinary(nil) }},
			{DecodeStab, func(v VC) []byte { return AppendStab(nil, v) }},
		} {
			if v, ok := varinttest.Check(t, data, c.decode, c.encode, VC.Equal, ErrTruncated, ErrDimension); ok && len(v) > MaxDecodeDim {
				t.Fatalf("decoded dimension %d past the cap", len(v))
			}
		}
		// Signed deltas against a small fixed base: decode must reject
		// out-of-range indices and underflows, never panic.
		a := NewAdaptive(4)
		a.CopyFrom(VC{3, 0, 9, 1})
		varinttest.Check(t, data, a.DecodeDeltaSigned, func(v VC) []byte { return a.AppendDeltaSigned(nil, v) },
			VC.Equal, ErrTruncated, ErrDimension)
	})
}

// TestGenerateSeedCorpus (re)writes FuzzDecodeClock's committed seed
// corpus; see varinttest.SkipUnlessGenerating.
func TestGenerateSeedCorpus(t *testing.T) {
	varinttest.SkipUnlessGenerating(t)
	varinttest.WriteCorpus(t, "FuzzDecodeClock", varinttest.OneArg(decodeClockSeeds())...)
}
