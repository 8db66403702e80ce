package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/varint"
	"repro/internal/vclock"
)

// This file is the client/server wire protocol of the serving tier
// (internal/service, cmd/dsmd): tagged request/response messages plus
// the compact session token that carries a vclock frontier between
// client and server.
//
// Frames on the socket are uvarint-length-prefixed, written by
// AppendFrame and read by the FrameReader (frame.go) that the TCP
// transport's update links share; this file encodes only the payloads.
//
// Wire format of a Request (all integers varint/uvarint):
//
//	tag            — pipelining tag, echoed verbatim on the response
//	kind           — ReqPing / ReqRead / ReqWrite
//	proc           — serving replica (-1: server picks)
//	var, val       — location and (for writes) payload
//	token          — session token, delta-encoded against the zero clock
//	flags          — bit 0: NoWait (fail instead of blocking on a
//	                 lagging frontier)
//	sid, opSeq     — exactly-once identity of a mutating request: sid
//	                 names the issuing client session, opSeq counts its
//	                 mutating ops. A retried write re-sends the same
//	                 (sid, opSeq) — possibly on a new connection — and
//	                 the server's dedup window applies it once. 0/0
//	                 means "no retry identity" (reads, pings, legacy).
//	[traceID, traceFlags] — OPTIONAL trace context, present iff bytes
//	                 remain after opSeq: a nonzero trace ID joining the
//	                 client's and server's records of this call, and
//	                 flags (bit 0: force tail-sampling). A frame that
//	                 ends at opSeq carries no trace context — old
//	                 clients interoperate unchanged. A present-but-zero
//	                 trace ID or an unknown flag bit is corrupt: the
//	                 encoder never emits either, and accepting them
//	                 would break decode→encode→decode equality.
//
// Wire format of a Response:
//
//	tag            — echoed request tag
//	status         — StatusOK / StatusBadRequest / ...
//	proc           — replica that served the request
//	val            — read result (or echoed write payload)
//	fromProc,fromSeq — WriteID of the write that produced val
//	token          — new session token, delta-encoded against the
//	                 request's token (absent when unchanged/unknown)
//	errlen, err    — human-readable detail for non-OK statuses
//	[traceID, nstages, (stage, ns)...] — OPTIONAL trace echo, present
//	                 iff bytes remain after err: the request's trace ID
//	                 plus the server's per-stage latency decomposition
//	                 of this request (stage indexes strictly increasing,
//	                 each < MaxTraceStage), echoed only for sampled
//	                 requests so the client can fold server time into
//	                 its own record of the call.
//
// The session token is a vclock frontier: component j is the number of
// writes issued by process j that the session has (transitively)
// observed. Responses encode it as a delta against the token the
// request carried — on a settled session only the components that
// advanced travel, typically a handful of bytes — and requests encode
// it against the zero clock (a sparse encoding: absent components are
// zero).

// Request kinds.
const (
	// ReqPing is a health/liveness probe; it round-trips the tag.
	ReqPing uint8 = iota
	// ReqRead reads one variable at the serving replica, blocking (or
	// failing, with FlagNoWait) until the replica's applied frontier
	// dominates the request token.
	ReqRead
	// ReqWrite writes one variable at the serving replica.
	ReqWrite
	reqKinds // sentinel: number of request kinds
)

// Request flag bits.
const (
	// FlagNoWait makes a lagging frontier an immediate StatusUnavailable
	// instead of a blocking wait.
	FlagNoWait uint64 = 1 << iota
)

// Trace-context flag bits (the second field of the optional trailing
// trace context; a separate namespace from the request flags).
const (
	// TraceSampled forces tail-sampling of this request at the server
	// regardless of its latency or outcome.
	TraceSampled uint64 = 1 << iota

	// traceFlagsKnown masks the defined trace flag bits; anything else
	// on the wire is corrupt.
	traceFlagsKnown = TraceSampled
)

// MaxTraceStage bounds the stage indexes a response's trace echo may
// carry (the server-side stage enum of internal/obs/reqtrace is far
// below this; the slack leaves room to add stages without a wire
// break).
const MaxTraceStage = 16

// Response statuses.
const (
	// StatusOK reports success.
	StatusOK uint8 = iota
	// StatusBadRequest reports a malformed or out-of-range request.
	StatusBadRequest
	// StatusUnavailable reports a frontier wait that timed out (or, with
	// FlagNoWait, would have blocked), or a crash-stopped replica.
	StatusUnavailable
	// StatusShutdown reports a request received while the server drains.
	StatusShutdown
	// StatusRetry reports a transient condition — a frontier wait that
	// ran out its server-side deadline with no replica able to take the
	// failover, or a wait interrupted by a replica crash. The request
	// was NOT applied (or, for a deduplicated write, its cached verdict
	// travels instead); retrying it, with backoff, is safe and expected.
	StatusRetry
	// StatusOverloaded reports load shedding: the server's in-flight
	// watermark is reached, and the request was fast-rejected without
	// being served. Retry with backoff.
	StatusOverloaded
	statusCount // sentinel: number of response statuses
)

// StatusString names a response status for errors and logs.
func StatusString(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnavailable:
		return "unavailable"
	case StatusShutdown:
		return "shutdown"
	case StatusRetry:
		return "retry"
	case StatusOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// KindString names a request kind for trace records.
func KindString(k uint8) string {
	switch k {
	case ReqPing:
		return "ping"
	case ReqRead:
		return "read"
	case ReqWrite:
		return "write"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Wire-protocol decode errors.
var (
	// ErrWireTruncated reports a buffer ending inside an encoded message.
	ErrWireTruncated = errors.New("protocol: truncated wire message")
	// ErrWireCorrupt reports a structurally invalid message (absurd
	// dimension, oversized string, unknown trailing bytes).
	ErrWireCorrupt = errors.New("protocol: corrupt wire message")
)

// MaxTokenDim bounds the session-token dimension a decoder accepts.
// The TCP transport caps clusters at 255 processes; anything beyond
// this bound is a corrupt or hostile frame, rejected before the
// decoder allocates for it.
const MaxTokenDim = 4096

// maxWireErr bounds the error-detail string a response may carry.
const maxWireErr = 1024

// Request is one client→server message.
type Request struct {
	// Tag is the pipelining tag: the client chooses it, the server
	// echoes it, and responses may return in any order.
	Tag uint64
	// Kind is ReqPing, ReqRead or ReqWrite.
	Kind uint8
	// Proc selects the serving replica; -1 lets the server pick.
	Proc int
	// Var and Val are the location and (for writes) the payload.
	Var int
	Val int64
	// Token is the session token (nil for a fresh session).
	Token vclock.VC
	// NoWait maps to FlagNoWait.
	NoWait bool
	// SID and OpSeq are the request's exactly-once identity: SID names
	// the issuing client session, OpSeq its mutating-op counter. The
	// pair keys the server's dedup window so a retried write applies
	// once. Both zero means no retry identity.
	SID   uint64
	OpSeq uint64
	// TraceID is the optional trace context: nonzero joins this call's
	// client- and server-side trace records; zero means untraced (and
	// encodes as an absent trailing field, so old peers interoperate).
	TraceID uint64
	// TraceSampled forces server-side tail-sampling of this request.
	// Meaningless (and never encoded) without a TraceID.
	TraceSampled bool
}

// Response is one server→client message.
type Response struct {
	// Tag echoes the request tag.
	Tag uint64
	// Status classifies the outcome.
	Status uint8
	// Proc is the replica that served the request.
	Proc int
	// Val is the read result (reads) or the echoed payload (writes).
	Val int64
	// From identifies the write that produced Val (reads) or that the
	// request issued (writes).
	From history.WriteID
	// Token is the advanced session token; nil means "unchanged".
	Token vclock.VC
	// Err carries human-readable detail for non-OK statuses.
	Err string
	// TraceID echoes the request's trace context; zero encodes as an
	// absent trailing field.
	TraceID uint64
	// TraceStages is the server's per-stage latency decomposition of
	// this request as (stage, ns) pairs — stage indexes strictly
	// increasing, each < MaxTraceStage — echoed only for sampled
	// requests (it travels only with a nonzero TraceID).
	TraceStages [][2]uint64
}

// AppendToken appends the delta encoding of tok against base: a
// uvarint dimension followed by vclock delta pairs. A nil tok encodes
// as dimension 0 ("no token"). When base's dimension differs from
// tok's, the zero clock substitutes — that is the full (sparse)
// encoding. tok must dominate base component-wise when the dimensions
// match; AppendToken panics otherwise, like vclock.AppendDelta,
// because emitting a wrong delta would silently corrupt the session.
func AppendToken(dst []byte, tok, base vclock.VC) []byte {
	if len(tok) == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(tok)))
	if len(base) != len(tok) {
		base = nil // the zero clock
	}
	return tok.AppendDelta(dst, base)
}

// DecodeToken decodes an AppendToken encoding from the front of buf,
// reconstructing the token on top of base (ignored when its dimension
// disagrees with the encoded one). It returns the token (nil when the
// encoding says "no token") and the bytes consumed.
func DecodeToken(buf []byte, base vclock.VC) (vclock.VC, int, error) {
	r := newWireReader(buf)
	tok := readToken(&r, base)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return tok, r.Off(), nil
}

// newWireReader reads a serving-tier payload: running out of bytes is
// ErrWireTruncated, anything malformed ErrWireCorrupt.
func newWireReader(buf []byte) varint.Reader {
	return varint.NewReader(buf, ErrWireTruncated, ErrWireCorrupt)
}

// readToken reads an AppendToken encoding from r. The dimension is
// capped by MaxTokenDim alone: a sparse token may be far wider than its
// bytes.
func readToken(r *varint.Reader, base vclock.VC) vclock.VC {
	dim := r.Uvarint()
	if dim > MaxTokenDim {
		r.Fail(fmt.Errorf("%w: token dimension %d exceeds %d", ErrWireCorrupt, dim, MaxTokenDim))
	}
	if dim == 0 || r.Err() != nil {
		return nil
	}
	if len(base) != int(dim) {
		base = vclock.New(int(dim))
	}
	return vclock.ReadDelta(r, base)
}

// AppendBinary appends the wire encoding of r to dst. The token is
// encoded against the zero clock (see AppendToken).
func (r Request) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, r.Tag)
	dst = binary.AppendUvarint(dst, uint64(r.Kind))
	dst = binary.AppendVarint(dst, int64(r.Proc))
	dst = binary.AppendVarint(dst, int64(r.Var))
	dst = binary.AppendVarint(dst, r.Val)
	dst = AppendToken(dst, r.Token, nil)
	var flags uint64
	if r.NoWait {
		flags |= FlagNoWait
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, r.SID)
	dst = binary.AppendUvarint(dst, r.OpSeq)
	if r.TraceID != 0 {
		dst = binary.AppendUvarint(dst, r.TraceID)
		var tf uint64
		if r.TraceSampled {
			tf |= TraceSampled
		}
		dst = binary.AppendUvarint(dst, tf)
	}
	return dst
}

// DecodeRequest decodes one request from the front of buf, returning
// it and the bytes consumed.
func DecodeRequest(buf []byte) (Request, int, error) {
	var q Request
	r := newWireReader(buf)
	q.Tag = r.Uvarint()
	kind := r.Uvarint()
	q.Proc = int(r.Varint())
	q.Var = int(r.Varint())
	q.Val = r.Varint()
	q.Token = readToken(&r, nil)
	flags := r.Uvarint()
	q.SID = r.Uvarint()
	q.OpSeq = r.Uvarint()
	if r.Err() == nil && r.Off() < len(buf) {
		// Bytes remain past the mandatory fields: trace context.
		q.TraceID = r.Uvarint()
		tf := r.Uvarint()
		switch {
		case r.Err() != nil:
		case q.TraceID == 0:
			r.Fail(fmt.Errorf("%w: trace context with zero trace ID", ErrWireCorrupt))
		case tf&^traceFlagsKnown != 0:
			r.Fail(fmt.Errorf("%w: unknown trace flags %#x", ErrWireCorrupt, tf))
		}
		q.TraceSampled = tf&TraceSampled != 0
	}
	if kind >= uint64(reqKinds) {
		r.Fail(fmt.Errorf("%w: request kind %d", ErrWireCorrupt, kind))
	}
	if err := r.Err(); err != nil {
		return Request{}, 0, err
	}
	q.Kind = uint8(kind)
	q.NoWait = flags&FlagNoWait != 0
	return q, r.Off(), nil
}

// AppendBinary appends the wire encoding of r to dst, delta-encoding
// the token against base — the token of the request being answered.
func (r Response) AppendBinary(dst []byte, base vclock.VC) []byte {
	dst = binary.AppendUvarint(dst, r.Tag)
	dst = binary.AppendUvarint(dst, uint64(r.Status))
	dst = binary.AppendVarint(dst, int64(r.Proc))
	dst = binary.AppendVarint(dst, r.Val)
	dst = appendWriteID(dst, r.From)
	dst = AppendToken(dst, r.Token, base)
	err := r.Err
	if len(err) > maxWireErr {
		err = err[:maxWireErr]
	}
	dst = binary.AppendUvarint(dst, uint64(len(err)))
	dst = append(dst, err...)
	if r.TraceID != 0 {
		dst = binary.AppendUvarint(dst, r.TraceID)
		dst = binary.AppendUvarint(dst, uint64(len(r.TraceStages)))
		for _, sn := range r.TraceStages {
			dst = binary.AppendUvarint(dst, sn[0])
			dst = binary.AppendUvarint(dst, sn[1])
		}
	}
	return dst
}

// DecodeResponse decodes one response from the front of buf,
// reconstructing the token on top of base — the token the matching
// request carried, which the client looks up by peeking the tag (see
// PeekTag). It returns the response and the bytes consumed.
func DecodeResponse(buf []byte, base vclock.VC) (Response, int, error) {
	var p Response
	r := newWireReader(buf)
	p.Tag = r.Uvarint()
	status := r.Uvarint()
	p.Proc = int(r.Varint())
	p.Val = r.Varint()
	p.From = readWriteID(&r)
	p.Token = readToken(&r, base)
	if status >= uint64(statusCount) {
		r.Fail(fmt.Errorf("%w: response status %d", ErrWireCorrupt, status))
	}
	p.Status = uint8(status)
	p.Err = string(r.Bytes(r.Count(maxWireErr)))
	if r.Err() == nil && r.Off() < len(buf) {
		// Bytes remain past the mandatory fields: trace echo.
		p.TraceID = r.Uvarint()
		if r.Err() == nil && p.TraceID == 0 {
			r.Fail(fmt.Errorf("%w: trace echo with zero trace ID", ErrWireCorrupt))
		}
		n := r.Count(MaxTraceStage)
		for i := 0; i < n && r.Err() == nil; i++ {
			stage, ns := r.Uvarint(), r.Uvarint()
			switch {
			case r.Err() != nil:
			case stage >= MaxTraceStage:
				r.Fail(fmt.Errorf("%w: trace stage %d exceeds %d", ErrWireCorrupt, stage, MaxTraceStage))
			case i > 0 && stage <= p.TraceStages[i-1][0]:
				r.Fail(fmt.Errorf("%w: trace stages not strictly increasing", ErrWireCorrupt))
			}
			p.TraceStages = append(p.TraceStages, [2]uint64{stage, ns})
		}
	}
	if err := r.Err(); err != nil {
		return Response{}, 0, err
	}
	return p, r.Off(), nil
}

// PeekTag reads the leading tag of an encoded request or response
// without decoding the rest — the client's pipelining demultiplexer
// uses it to find the pending call (and its token base) before the
// full DecodeResponse.
func PeekTag(buf []byte) (uint64, error) {
	r := newWireReader(buf)
	tag := r.Uvarint()
	return tag, r.Err()
}
