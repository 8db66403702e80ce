package protocol

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/vclock"
)

// The wire decoders face the network: every byte string must either
// decode cleanly or fail with a typed error — never panic, never
// over-read, and whatever decodes must re-encode to something that
// decodes back equal (the decoder accepts only canonical-equivalent
// values). The committed corpus under testdata/fuzz replays on every
// plain `go test` run, so past crashers are permanent regressions.

func FuzzWireRequest(f *testing.F) {
	for _, r := range wireRequests() {
		f.Add(r.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf := r.AppendBinary(nil)
		r2, n2, err := DecodeRequest(buf)
		if err != nil || n2 != len(buf) {
			t.Fatalf("re-decode of %+v: %v (consumed %d of %d)", r, err, n2, len(buf))
		}
		if r2.Tag != r.Tag || r2.Kind != r.Kind || r2.Proc != r.Proc ||
			r2.Var != r.Var || r2.Val != r.Val || r2.NoWait != r.NoWait ||
			r2.SID != r.SID || r2.OpSeq != r.OpSeq ||
			r2.TraceID != r.TraceID || r2.TraceSampled != r.TraceSampled ||
			!r2.Token.Equal(r.Token) {
			t.Fatalf("re-decode mismatch: %+v != %+v", r2, r)
		}
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
		r, n, err := DecodeResponse(data, base)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf := r.AppendBinary(nil, base)
		r2, n2, err := DecodeResponse(buf, base)
		if err != nil || n2 != len(buf) {
			t.Fatalf("re-decode of %+v: %v (consumed %d of %d)", r, err, n2, len(buf))
		}
		if r2.Tag != r.Tag || r2.Status != r.Status || r2.Proc != r.Proc ||
			r2.Val != r.Val || r2.From != r.From || r2.Err != r.Err ||
			r2.TraceID != r.TraceID || !traceStagesEqual(r2.TraceStages, r.TraceStages) ||
			!r2.Token.Equal(r.Token) {
			t.Fatalf("re-decode mismatch: %+v != %+v", r2, r)
		}
	})
}

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
		tok, n, err := DecodeToken(data, base)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Re-encode sparsely and against the base; both must round-trip.
		for _, b := range []vclock.VC{nil, base} {
			if len(b) == len(tok) && len(tok) > 0 && !tok.Dominates(b) {
				continue // AppendToken's documented panic precondition
			}
			buf := AppendToken(nil, tok, b)
			tok2, n2, err := DecodeToken(buf, b)
			if err != nil || n2 != len(buf) {
				t.Fatalf("re-decode of %v vs %v: %v (consumed %d of %d)", tok, b, err, n2, len(buf))
			}
			if !tok2.Equal(tok) && !(tok == nil && len(tok2) == 0) {
				t.Fatalf("re-decode mismatch: %v != %v (base %v)", tok2, tok, b)
			}
		}
	})
}

// Sanity for the corpus files themselves: every committed seed must be
// a well-formed "go test fuzz v1" entry, which the testing package
// verifies by replaying them during plain `go test` runs. This test
// just pins that the corpus directories exist and are non-empty so a
// deleted corpus fails loudly rather than silently weakening the fuzz
// smoke.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzWireRequest", "FuzzWireResponse", "FuzzWireToken", "FuzzDecodeUpdate", "FuzzUpdateDecoder", "FuzzReadFrame", "FuzzRestoreState"} {
		ents := corpusEntries(t, target)
		if len(ents) == 0 {
			t.Fatalf("no committed corpus for %s under testdata/fuzz", target)
		}
		for _, e := range ents {
			if !bytes.HasPrefix(e, []byte("go test fuzz v1")) {
				t.Fatalf("%s corpus entry is not a v1 corpus file", target)
			}
		}
	}
}

// corpusEntries reads the committed seed corpus for one fuzz target.
func corpusEntries(t *testing.T, target string) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	var out [][]byte
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatalf("reading corpus entry: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// TestGenerateSeedCorpus (re)writes the committed seed corpus. It is a
// generator, not a test: set WIRE_CORPUS_GEN=1 to run it after
// changing the wire format, then commit the testdata/fuzz diff.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_CORPUS_GEN") == "" {
		t.Skip("set WIRE_CORPUS_GEN=1 to regenerate the seed corpus")
	}
	junk := [][]byte{
		{},
		{0x00},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		bytes.Repeat([]byte{0x80}, 24), // unterminated varint
	}
	base4 := vclock.VC{1, 2, 3, 4}
	baseRaw := base4.AppendBinary(nil)

	var reqs [][]byte
	for _, r := range wireRequests() {
		reqs = append(reqs, r.AppendBinary(nil))
	}
	reqs = append(reqs, junk...)
	writeCorpus(t, "FuzzWireRequest", reqs, nil)

	var resps, bases [][]byte
	for _, tc := range wireResponses() {
		resps = append(resps, tc.r.AppendBinary(nil, tc.base))
		bases = append(bases, tc.base.AppendBinary(nil))
	}
	for _, j := range junk {
		resps = append(resps, j)
		bases = append(bases, baseRaw)
	}
	writeCorpus(t, "FuzzWireResponse", resps, bases)

	var toks, tokBases [][]byte
	for _, tok := range []vclock.VC{nil, {0}, {1, 2, 3}, {1 << 40, 0, 7, 9}, base4} {
		toks = append(toks, AppendToken(nil, tok, nil))
		tokBases = append(tokBases, []byte{})
		if len(tok) == len(base4) {
			toks = append(toks, AppendToken(nil, vclock.Max(tok, base4), base4))
			tokBases = append(tokBases, baseRaw)
		}
	}
	for _, j := range junk {
		toks = append(toks, j)
		tokBases = append(tokBases, baseRaw)
	}
	writeCorpus(t, "FuzzWireToken", toks, tokBases)
	writeCorpus(t, "FuzzDecodeUpdate", decodeUpdateSeeds(), nil)
	writeCorpus(t, "FuzzUpdateDecoder", updateDecoderSeeds(), nil)
	writeCorpus(t, "FuzzRestoreState", restoreStateSeeds(), nil)

	var frameSeeds [][]any
	for _, s := range readFrameSeeds() {
		frameSeeds = append(frameSeeds, []any{s.stream, s.max})
	}
	writeSeeds(t, "FuzzReadFrame", frameSeeds)
}

// writeCorpus writes v1 corpus files; second is nil for one-parameter
// targets, else parallel to first.
func writeCorpus(t *testing.T, target string, first, second [][]byte) {
	t.Helper()
	seeds := make([][]any, len(first))
	for i, data := range first {
		seeds[i] = []any{data}
		if second != nil {
			seeds[i] = append(seeds[i], second[i])
		}
	}
	writeSeeds(t, target, seeds)
}

// writeSeeds writes one v1 corpus file per seed, one line per argument.
func writeSeeds(t *testing.T, target string, seeds [][]any) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, args := range seeds {
		entry := "go test fuzz v1\n"
		for _, a := range args {
			if b, ok := a.([]byte); ok {
				entry += "[]byte(" + strconv.Quote(string(b)) + ")\n"
			} else {
				entry += fmt.Sprintf("%T(%v)\n", a, a)
			}
		}
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
