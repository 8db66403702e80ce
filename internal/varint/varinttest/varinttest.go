// Package varinttest holds the one contract every fuzz target over a
// decoder of outside bytes asserts, and the writer of their committed
// seed corpora.
package varinttest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Check asserts the decoder contract on one input. decode must either
// fail with an error wrapping one of sentinels, or succeed having read
// no byte past the n it reports: the first n bytes alone decode to the
// same value. What it accepts must then re-encode canonically: encode's
// bytes decode back, whole, to an equal value that encodes to the same
// bytes. Check reports the decoded value and whether decode succeeded.
func Check[T any](t testing.TB, data []byte, decode func([]byte) (T, int, error),
	encode func(T) []byte, equal func(a, b T) bool, sentinels ...error) (T, bool) {
	t.Helper()
	v, n, err := decode(data)
	if err != nil {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return v, false
			}
		}
		t.Fatalf("error %v wraps none of %v", err, sentinels)
	}
	if n < 0 || n > len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	if v2, n2, err := decode(data[:n:n]); err != nil || n2 != n || !equal(v, v2) {
		t.Fatalf("the %d bytes consumed alone decode to %+v (%d bytes, %v), not %+v", n, v2, n2, err, v)
	}
	buf := encode(v)
	v2, n2, err := decode(buf)
	if err != nil || n2 != len(buf) || !equal(v, v2) {
		t.Fatalf("re-decode of %+v: %+v, %v (consumed %d of %d)", v, v2, err, n2, len(buf))
	}
	if again := encode(v2); !bytes.Equal(again, buf) {
		t.Fatalf("re-encode of %+v is %x, then %x", v, buf, again)
	}
	return v, true
}

// WriteCorpus (re)writes the committed seed corpus of one fuzz target
// under testdata/fuzz: one "go test fuzz v1" file per seed, one line per
// argument.
func WriteCorpus(t testing.TB, target string, seeds ...[]any) {
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

// OneArg shapes the seeds of a one-argument fuzz target for
// WriteCorpus.
func OneArg(seeds [][]byte) [][]any {
	out := make([][]any, len(seeds))
	for i, s := range seeds {
		out[i] = []any{s}
	}
	return out
}

// SkipUnlessGenerating skips a corpus generator unless WIRE_CORPUS_GEN
// is set: set it after changing an encoding, run the generators, then
// commit the testdata/fuzz diff.
func SkipUnlessGenerating(t testing.TB) {
	t.Helper()
	if os.Getenv("WIRE_CORPUS_GEN") == "" {
		t.Skip("set WIRE_CORPUS_GEN=1 to regenerate the seed corpus")
	}
}
