package core

import (
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/varint"
	"repro/internal/varint/varinttest"
	"repro/internal/vclock"
)

// The snapshot tail — pending updates and the catch-up archive — is
// read off disk at every restart, so it meets the fuzzing bar of the
// other decoders of outside bytes. Every input is read as the tail of a
// snapshot of fuzzTailProcs processes.
const fuzzTailProcs = 3

// tail is what readSnapshotTail decodes.
type tail struct {
	pending []protocol.Update
	archive [][]protocol.Update
}

func decodeTail(b []byte) (tail, int, error) {
	r := varint.NewReader(b, protocol.ErrStateCorrupt, protocol.ErrStateCorrupt)
	pending, archive := readSnapshotTail(&r, fuzzTailProcs)
	return tail{pending, archive}, r.Off(), r.Err()
}

func encodeTail(t tail) []byte { return appendSnapshotTail(nil, t.pending, t.archive) }

func sameTail(a, b tail) bool {
	same := func(x, y []protocol.Update) bool {
		return slices.EqualFunc(x, y, func(u, v protocol.Update) bool {
			return string(u.AppendBinary(nil)) == string(v.AppendBinary(nil))
		})
	}
	return same(a.pending, b.pending) && slices.EqualFunc(a.archive, b.archive, same)
}

// snapshotTailSeeds are tails of an empty node, of one with a buffered
// update and a populated archive, and the truncations and junk a torn
// or corrupt snapshot leaves.
func snapshotTailSeeds() [][]byte {
	w := func(p, seq int, clock vclock.VC) protocol.Update {
		return protocol.Update{ID: history.WriteID{Proc: p, Seq: seq}, Var: seq % 2, Val: int64(10*p + seq), Clock: clock}
	}
	full := encodeTail(tail{
		pending: []protocol.Update{w(2, 2, vclock.VC{0, 1, 2})},
		archive: [][]protocol.Update{
			{w(0, 1, vclock.VC{1, 0, 0}), w(0, 2, vclock.VC{2, 1, 0})},
			{w(1, 1, vclock.VC{1, 1, 0})},
			nil,
		},
	})
	return [][]byte{
		encodeTail(tail{archive: make([][]protocol.Update, fuzzTailProcs)}),
		full,
		full[:len(full)/2],
		{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, // a count far above the bytes left
		{},
	}
}

func FuzzSnapshotTail(f *testing.F) {
	for _, s := range snapshotTailSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		varinttest.Check(t, data, decodeTail, encodeTail, sameTail, protocol.ErrStateCorrupt)
	})
}

// TestGenerateSeedCorpus (re)writes FuzzSnapshotTail's committed seed
// corpus; see varinttest.SkipUnlessGenerating.
func TestGenerateSeedCorpus(t *testing.T) {
	varinttest.SkipUnlessGenerating(t)
	varinttest.WriteCorpus(t, "FuzzSnapshotTail", varinttest.OneArg(snapshotTailSeeds())...)
}
