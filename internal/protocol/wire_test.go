package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/vclock"
)

func wireRequests() []Request {
	return []Request{
		{},
		{Tag: 1, Kind: ReqPing, Proc: -1},
		{Tag: 7, Kind: ReqRead, Proc: 2, Var: 5, Token: vclock.VC{3, 0, 9}},
		{Tag: 1 << 40, Kind: ReqWrite, Proc: -1, Var: 0, Val: -12345,
			Token: vclock.VC{0, 0, 0, 0}, NoWait: true},
		{Tag: 42, Kind: ReqWrite, Proc: 0, Var: 9, Val: 1 << 50},
		{Tag: 3, Kind: ReqRead, Proc: 1, Var: 2, Token: vclock.VC{1 << 33, 7}, NoWait: true},
		{Tag: 8, Kind: ReqWrite, Proc: -1, Var: 3, Val: 11, SID: 0xdeadbeef, OpSeq: 1},
		{Tag: 9, Kind: ReqWrite, Proc: 2, Var: 0, Val: -7,
			Token: vclock.VC{2, 0, 5}, SID: 1 << 60, OpSeq: 1 << 20},
		{Tag: 10, Kind: ReqRead, Proc: 1, Var: 4, TraceID: 0xfeedface},
		{Tag: 11, Kind: ReqWrite, Proc: -1, Var: 2, Val: 9, SID: 5, OpSeq: 3,
			Token: vclock.VC{1, 2}, TraceID: 1 << 62, TraceSampled: true},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range wireRequests() {
		buf := want.AppendBinary(nil)
		got, n, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("DecodeRequest(%+v) consumed %d of %d bytes", want, n, len(buf))
		}
		if got.Tag != want.Tag || got.Kind != want.Kind || got.Proc != want.Proc ||
			got.Var != want.Var || got.Val != want.Val || got.NoWait != want.NoWait ||
			got.SID != want.SID || got.OpSeq != want.OpSeq ||
			got.TraceID != want.TraceID || got.TraceSampled != want.TraceSampled {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		if want.Token == nil && got.Token != nil || want.Token != nil && !got.Token.Equal(want.Token) {
			t.Fatalf("round trip token: got %v want %v", got.Token, want.Token)
		}
		tag, err := PeekTag(buf)
		if err != nil || tag != want.Tag {
			t.Fatalf("PeekTag = %d, %v; want %d", tag, err, want.Tag)
		}
	}
}

func wireResponses() []struct {
	r    Response
	base vclock.VC
} {
	return []struct {
		r    Response
		base vclock.VC
	}{
		{Response{}, nil},
		{Response{Tag: 9, Status: StatusOK, Proc: 1, Val: 77,
			From:  history.WriteID{Proc: 2, Seq: 31},
			Token: vclock.VC{4, 8, 15}}, vclock.VC{4, 2, 15}},
		{Response{Tag: 2, Status: StatusUnavailable, Proc: 0,
			Err: "frontier behind session token"}, vclock.VC{1, 1}},
		{Response{Tag: 1 << 55, Status: StatusShutdown, Proc: -1,
			Err: "server draining"}, nil},
		{Response{Tag: 5, Status: StatusOK, Proc: 3, Val: -9,
			From:  history.WriteID{Proc: 0, Seq: 1},
			Token: vclock.VC{10, 20}}, nil}, // dim mismatch with base → sparse
		{Response{Tag: 6, Status: StatusBadRequest, Proc: -1,
			Err: "variable 99 of 8"}, vclock.VC{0, 0, 0}},
		{Response{Tag: 11, Status: StatusRetry, Proc: 2,
			Err: "no replica can serve the session token yet"}, vclock.VC{3, 3}},
		{Response{Tag: 12, Status: StatusOverloaded, Proc: -1,
			Err: "in-flight watermark reached"}, nil},
		{Response{Tag: 13, Status: StatusOK, Proc: 0, Val: 4,
			TraceID: 0xfeedface}, nil},
		{Response{Tag: 14, Status: StatusOK, Proc: 2, Val: 8,
			From: history.WriteID{Proc: 2, Seq: 5}, Token: vclock.VC{1, 2, 6},
			TraceID:     1 << 62,
			TraceStages: [][2]uint64{{0, 1200}, {2, 1 << 40}, {5, 350}}}, vclock.VC{1, 2, 5}},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, tc := range wireResponses() {
		buf := tc.r.AppendBinary(nil, tc.base)
		got, n, err := DecodeResponse(buf, tc.base)
		if err != nil {
			t.Fatalf("DecodeResponse(%+v): %v", tc.r, err)
		}
		if n != len(buf) {
			t.Fatalf("DecodeResponse(%+v) consumed %d of %d bytes", tc.r, n, len(buf))
		}
		if got.Tag != tc.r.Tag || got.Status != tc.r.Status || got.Proc != tc.r.Proc ||
			got.Val != tc.r.Val || got.From != tc.r.From || got.Err != tc.r.Err ||
			got.TraceID != tc.r.TraceID {
			t.Fatalf("round trip: got %+v want %+v", got, tc.r)
		}
		if tc.r.Token == nil && got.Token != nil || tc.r.Token != nil && !got.Token.Equal(tc.r.Token) {
			t.Fatalf("round trip token: got %v want %v", got.Token, tc.r.Token)
		}
		if !traceStagesEqual(got.TraceStages, tc.r.TraceStages) {
			t.Fatalf("round trip trace stages: got %v want %v", got.TraceStages, tc.r.TraceStages)
		}
	}
}

// requestsEqual compares every field the request codec carries.
func requestsEqual(a, b Request) bool {
	return a.Tag == b.Tag && a.Kind == b.Kind && a.Proc == b.Proc &&
		a.Var == b.Var && a.Val == b.Val && a.NoWait == b.NoWait &&
		a.SID == b.SID && a.OpSeq == b.OpSeq &&
		a.TraceID == b.TraceID && a.TraceSampled == b.TraceSampled &&
		a.Token.Equal(b.Token)
}

// responsesEqual compares every field the response codec carries.
func responsesEqual(a, b Response) bool {
	return a.Tag == b.Tag && a.Status == b.Status && a.Proc == b.Proc &&
		a.Val == b.Val && a.From == b.From && a.Err == b.Err &&
		a.TraceID == b.TraceID && traceStagesEqual(a.TraceStages, b.TraceStages) &&
		a.Token.Equal(b.Token)
}

func traceStagesEqual(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A settled session's token delta should be tiny: one advanced
// component costs a few bytes, not the full frontier.
func TestResponseTokenDeltaCompact(t *testing.T) {
	base := make(vclock.VC, 64)
	for i := range base {
		base[i] = 1 << 30
	}
	tok := base.Clone()
	tok[7]++
	full := Response{Tag: 1, Token: tok}.AppendBinary(nil, nil)
	delta := Response{Tag: 1, Token: tok}.AppendBinary(nil, base)
	if len(delta) >= len(full)/4 {
		t.Fatalf("delta encoding %d bytes, sparse %d bytes: delta should be far smaller", len(delta), len(full))
	}
}

// Every strict prefix of a valid encoding must fail to decode: the
// framing layer delivers whole frames, so a short decode marks
// corruption, never a "partial message". The one sanctioned exception
// is the trace-context boundary — a traced message cut exactly at the
// end of its mandatory fields IS a valid untraced message (that is what
// backward compatibility means) — so a successful prefix decode must be
// exactly that: the untraced reading, consuming every prefix byte.
func TestRequestDecodeTruncated(t *testing.T) {
	for _, r := range wireRequests() {
		buf := r.AppendBinary(nil)
		for cut := 0; cut < len(buf); cut++ {
			got, n, err := DecodeRequest(buf[:cut])
			if err == nil {
				if r.TraceID == 0 || n != cut || got.TraceID != 0 {
					t.Fatalf("DecodeRequest(%+v prefix %d/%d) succeeded: %+v", r, cut, len(buf), got)
				}
			}
		}
	}
}

func TestResponseDecodeTruncated(t *testing.T) {
	for _, tc := range wireResponses() {
		buf := tc.r.AppendBinary(nil, tc.base)
		for cut := 0; cut < len(buf); cut++ {
			got, n, err := DecodeResponse(buf[:cut], tc.base)
			if err == nil {
				if tc.r.TraceID == 0 || n != cut || got.TraceID != 0 {
					t.Fatalf("DecodeResponse(%+v prefix %d/%d) succeeded: %+v", tc.r, cut, len(buf), got)
				}
			}
		}
	}
}

func TestDecodeTokenAbsurdDimension(t *testing.T) {
	buf := binary.AppendUvarint(nil, MaxTokenDim+1)
	buf = append(buf, bytes.Repeat([]byte{0}, 64)...)
	if _, _, err := DecodeToken(buf, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeToken(dim=%d) = %v, want ErrWireCorrupt", MaxTokenDim+1, err)
	}
	// The same bound must hold inside a full message.
	req := Request{Tag: 1, Kind: ReqRead}.AppendBinary(nil)
	req = req[:len(req)-4] // strip token(dim 0) + flags + sid + opSeq
	req = binary.AppendUvarint(req, MaxTokenDim+1)
	req = append(req, bytes.Repeat([]byte{1}, 32)...)
	if _, _, err := DecodeRequest(req); err == nil {
		t.Fatal("DecodeRequest with absurd token dimension succeeded")
	}
}

func TestDecodeRequestBadKind(t *testing.T) {
	r := Request{Tag: 3, Kind: ReqWrite, Var: 1}
	buf := r.AppendBinary(nil)
	// Kind is the second field; re-encode with an out-of-range kind.
	bad := binary.AppendUvarint(nil, r.Tag)
	bad = binary.AppendUvarint(bad, uint64(reqKinds))
	bad = append(bad, buf[2:]...)
	if _, _, err := DecodeRequest(bad); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeRequest(kind=%d) = %v, want ErrWireCorrupt", reqKinds, err)
	}
}

func TestDecodeResponseBadStatus(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1)                  // tag
	buf = binary.AppendUvarint(buf, uint64(statusCount)) // status
	buf = binary.AppendVarint(buf, 0)                    // proc
	buf = binary.AppendVarint(buf, 0)                    // val
	buf = binary.AppendVarint(buf, 0)                    // fromProc
	buf = binary.AppendVarint(buf, 0)                    // fromSeq
	buf = binary.AppendUvarint(buf, 0)                   // token dim
	buf = binary.AppendUvarint(buf, 0)                   // errlen
	if _, _, err := DecodeResponse(buf, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeResponse(bad status) = %v, want ErrWireCorrupt", err)
	}
}

func TestResponseErrTruncatedOnEncode(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, maxWireErr+500))
	buf := Response{Tag: 1, Status: StatusUnavailable, Err: long}.AppendBinary(nil, nil)
	got, _, err := DecodeResponse(buf, nil)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if len(got.Err) != maxWireErr {
		t.Fatalf("error detail %d bytes on the wire, want cap %d", len(got.Err), maxWireErr)
	}
}

func TestDecodeResponseErrTooLong(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1) // tag
	buf = binary.AppendUvarint(buf, 0)  // status
	buf = binary.AppendVarint(buf, 0)   // proc
	buf = binary.AppendVarint(buf, 0)   // val
	buf = binary.AppendVarint(buf, 0)   // fromProc
	buf = binary.AppendVarint(buf, 0)   // fromSeq
	buf = binary.AppendUvarint(buf, 0)  // token dim
	buf = binary.AppendUvarint(buf, maxWireErr+1)
	buf = append(buf, bytes.Repeat([]byte{'x'}, maxWireErr+1)...)
	if _, _, err := DecodeResponse(buf, nil); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeResponse(errlen=%d) = %v, want ErrWireCorrupt", maxWireErr+1, err)
	}
}

func TestAppendTokenBaseMismatchFallsBackToSparse(t *testing.T) {
	tok := vclock.VC{5, 6, 7}
	// Base of the wrong dimension must not panic — it encodes sparsely.
	buf := AppendToken(nil, tok, vclock.VC{1, 2})
	got, n, err := DecodeToken(buf, nil)
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeToken: %v (consumed %d of %d)", err, n, len(buf))
	}
	if !got.Equal(tok) {
		t.Fatalf("token = %v, want %v", got, tok)
	}
	// Decoding against a mismatched base likewise ignores the base.
	got, _, err = DecodeToken(buf, vclock.VC{9})
	if err != nil || !got.Equal(tok) {
		t.Fatalf("DecodeToken(mismatched base) = %v, %v; want %v", got, err, tok)
	}
}

// Trailing bytes after the mandatory fields are parsed as trace
// context; garbage there is now a decode error, not silently-ignored
// slack. Bytes after a complete trace context remain unconsumed, and
// callers reject the frame by the n != len(frame) check.
func TestDecodeRequestTrailingGarbageRejected(t *testing.T) {
	buf := Request{Tag: 2, Kind: ReqPing}.AppendBinary(nil)
	buf = append(buf, 0xAB, 0xCD) // unterminated uvarint
	if _, _, err := DecodeRequest(buf); err == nil {
		t.Fatal("DecodeRequest with garbage trailing bytes succeeded")
	}
	traced := Request{Tag: 2, Kind: ReqPing, TraceID: 9}.AppendBinary(nil)
	full := len(traced)
	traced = append(traced, 0x01) // a byte after a complete trace context
	got, n, err := DecodeRequest(traced)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if n != full || got.TraceID != 9 {
		t.Fatalf("consumed %d bytes (TraceID=%d), want %d; callers reject frames with trailing garbage", n, got.TraceID, full)
	}
}

func TestDecodeRequestTraceContextRejects(t *testing.T) {
	base := Request{Tag: 3, Kind: ReqRead, Var: 1}.AppendBinary(nil)
	zeroID := binary.AppendUvarint(append([]byte(nil), base...), 0)
	zeroID = binary.AppendUvarint(zeroID, 0)
	if _, _, err := DecodeRequest(zeroID); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeRequest(trace ID 0) = %v, want ErrWireCorrupt", err)
	}
	badFlags := binary.AppendUvarint(append([]byte(nil), base...), 7)
	badFlags = binary.AppendUvarint(badFlags, 1<<5) // undefined flag bit
	if _, _, err := DecodeRequest(badFlags); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("DecodeRequest(unknown trace flags) = %v, want ErrWireCorrupt", err)
	}
}

func TestDecodeResponseTraceEchoRejects(t *testing.T) {
	base := Response{Tag: 4, Status: StatusOK}.AppendBinary(nil, nil)
	add := func(vals ...uint64) []byte {
		buf := append([]byte(nil), base...)
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf
	}
	for name, buf := range map[string][]byte{
		"zero trace ID":    add(0, 0),
		"stage count":      add(9, MaxTraceStage+1),
		"stage index":      add(9, 1, MaxTraceStage, 50),
		"stage order":      add(9, 2, 3, 50, 2, 60),
		"duplicate stage":  add(9, 2, 3, 50, 3, 60),
		"missing stage ns": add(9, 1, 3),
	} {
		if _, _, err := DecodeResponse(buf, nil); err == nil {
			t.Errorf("DecodeResponse(%s) succeeded", name)
		}
	}
}

// TestStatusStringExhaustive fails when a status is added without a
// name: every defined status must render something better than the
// numeric fallback, and no two statuses may share a name.
func TestStatusStringExhaustive(t *testing.T) {
	seen := make(map[string]uint8)
	for s := uint8(0); s < uint8(statusCount); s++ {
		name := StatusString(s)
		if name == "" || strings.HasPrefix(name, "status(") {
			t.Errorf("status %d has no name (StatusString = %q)", s, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("statuses %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if got := StatusString(200); got != "status(200)" {
		t.Errorf("StatusString(200) = %q, want fallback", got)
	}
}

func TestPeekTagTruncated(t *testing.T) {
	for name, buf := range map[string][]byte{
		"empty":             {},
		"unterminated":      {0x80},
		"unterminated long": bytes.Repeat([]byte{0xFF}, 5),
	} {
		if _, err := PeekTag(buf); !errors.Is(err, ErrWireTruncated) {
			t.Errorf("PeekTag(%s) = %v, want ErrWireTruncated", name, err)
		}
	}
	// Ten bytes hold any uint64: an eleventh is malformed, not missing.
	if _, err := PeekTag(bytes.Repeat([]byte{0xFF}, 11)); !errors.Is(err, ErrWireCorrupt) || errors.Is(err, ErrWireTruncated) {
		t.Errorf("PeekTag(overflowing varint) = %v, want ErrWireCorrupt", err)
	}
	tag, err := PeekTag(Request{Tag: 1 << 40, Kind: ReqPing}.AppendBinary(nil))
	if err != nil || tag != 1<<40 {
		t.Fatalf("PeekTag(valid) = %d, %v", tag, err)
	}
}
