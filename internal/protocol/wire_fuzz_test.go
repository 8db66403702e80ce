package protocol

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/varint/varinttest"
	"repro/internal/vclock"
)

// The wire decoders face the network: every input meets
// varinttest.Check's contract — decode or fail with ErrWireTruncated or
// ErrWireCorrupt, never panic, never over-read, and whatever decodes
// re-encodes canonically. The committed corpus under testdata/fuzz replays on every
// plain `go test` run, so past crashers are permanent regressions.

func FuzzWireRequest(f *testing.F) {
	for _, r := range wireRequests() {
		f.Add(r.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		varinttest.Check(t, data, DecodeRequest, func(r Request) []byte { return r.AppendBinary(nil) },
			requestsEqual, ErrWireTruncated, ErrWireCorrupt)
	})
}

func FuzzWireResponse(f *testing.F) {
	for _, tc := range wireResponses() {
		f.Add(tc.r.AppendBinary(nil, tc.base), tc.base.AppendBinary(nil))
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, baseRaw []byte) {
		// The base clock is itself attacker-adjacent state (it came off a
		// prior frame), so fuzz it too.
		base, _, berr := vclock.DecodeVC(baseRaw)
		if berr != nil {
			base = nil
		}
		varinttest.Check(t, data,
			func(b []byte) (Response, int, error) { return DecodeResponse(b, base) },
			func(r Response) []byte { return r.AppendBinary(nil, base) },
			responsesEqual, ErrWireTruncated, ErrWireCorrupt)
	})
}

// FuzzWireToken decodes against a fuzzed base and against none: a
// decoded token dominates its base, so both re-encode.
func FuzzWireToken(f *testing.F) {
	zero4 := vclock.New(4)
	for _, tok := range []vclock.VC{nil, {0}, {1, 2, 3}, {1 << 40, 0, 7, 9}} {
		f.Add(AppendToken(nil, tok, nil), []byte{})
		f.Add(AppendToken(nil, tok, zero4[:min(len(zero4), len(tok))]), zero4.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data, baseRaw []byte) {
		base, _, berr := vclock.DecodeVC(baseRaw)
		if berr != nil {
			base = nil
		}
		for _, b := range []vclock.VC{nil, base} {
			varinttest.Check(t, data,
				func(buf []byte) (vclock.VC, int, error) { return DecodeToken(buf, b) },
				func(tok vclock.VC) []byte { return AppendToken(nil, tok, b) },
				vclock.VC.Equal, ErrWireTruncated, ErrWireCorrupt)
		}
	})
}

// Sanity for the corpus files themselves: every committed seed must be
// a well-formed "go test fuzz v1" entry, which the testing package
// verifies by replaying them during plain `go test` runs. This test
// just pins that the corpus directories of every decoder fuzz target
// in `make fuzz-smoke` exist and are non-empty, so a deleted corpus
// fails loudly rather than silently weakening the fuzz smoke.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, dir := range []string{
		"testdata/fuzz/FuzzWireRequest", "testdata/fuzz/FuzzWireResponse", "testdata/fuzz/FuzzWireToken",
		"testdata/fuzz/FuzzDecodeUpdate", "testdata/fuzz/FuzzUpdateDecoder", "testdata/fuzz/FuzzReadFrame",
		"testdata/fuzz/FuzzRestoreState", "../vclock/testdata/fuzz/FuzzDecodeClock",
		"../durability/testdata/fuzz/FuzzRecoverSegment", "../core/testdata/fuzz/FuzzSnapshotTail",
	} {
		des, err := os.ReadDir(dir)
		if err != nil || len(des) == 0 {
			t.Fatalf("no committed corpus under %s: %v", dir, err)
		}
		for _, de := range des {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatalf("reading corpus entry: %v", err)
			}
			if !bytes.HasPrefix(b, []byte("go test fuzz v1")) {
				t.Fatalf("%s/%s is not a v1 corpus file", dir, de.Name())
			}
		}
	}
}

// TestGenerateSeedCorpus (re)writes the committed seed corpus; see
// varinttest.SkipUnlessGenerating.
func TestGenerateSeedCorpus(t *testing.T) {
	varinttest.SkipUnlessGenerating(t)
	junk := [][]byte{
		{},
		{0x00},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		bytes.Repeat([]byte{0x80}, 24), // unterminated varint
	}
	base4 := vclock.VC{1, 2, 3, 4}
	baseRaw := base4.AppendBinary(nil)

	var reqs [][]any
	for _, r := range wireRequests() {
		reqs = append(reqs, []any{r.AppendBinary(nil)})
	}
	for _, j := range junk {
		reqs = append(reqs, []any{j})
	}
	varinttest.WriteCorpus(t, "FuzzWireRequest", reqs...)

	var resps [][]any
	for _, tc := range wireResponses() {
		resps = append(resps, []any{tc.r.AppendBinary(nil, tc.base), tc.base.AppendBinary(nil)})
	}
	for _, j := range junk {
		resps = append(resps, []any{j, baseRaw})
	}
	varinttest.WriteCorpus(t, "FuzzWireResponse", resps...)

	var toks [][]any
	for _, tok := range []vclock.VC{nil, {0}, {1, 2, 3}, {1 << 40, 0, 7, 9}, base4} {
		toks = append(toks, []any{AppendToken(nil, tok, nil), []byte{}})
		if len(tok) == len(base4) {
			toks = append(toks, []any{AppendToken(nil, vclock.Max(tok, base4), base4), baseRaw})
		}
	}
	for _, j := range junk {
		toks = append(toks, []any{j, baseRaw})
	}
	varinttest.WriteCorpus(t, "FuzzWireToken", toks...)
	varinttest.WriteCorpus(t, "FuzzDecodeUpdate", varinttest.OneArg(decodeUpdateSeeds())...)
	varinttest.WriteCorpus(t, "FuzzUpdateDecoder", varinttest.OneArg(updateDecoderSeeds())...)
	varinttest.WriteCorpus(t, "FuzzRestoreState", varinttest.OneArg(restoreStateSeeds())...)

	var frameSeeds [][]any
	for _, s := range readFrameSeeds() {
		frameSeeds = append(frameSeeds, []any{s.stream, s.max})
	}
	varinttest.WriteCorpus(t, "FuzzReadFrame", frameSeeds...)
}
