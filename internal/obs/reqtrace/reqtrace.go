// Package reqtrace is the end-to-end request tracing layer of the
// serving tier: one trace covers a client call from the moment the
// session issues it, through the server's admission, dedup lookup,
// frontier wait, core issue and response write, and —
// via the write's (proc, seq) identity — links into the cluster's
// causal-propagation spans (obs.Span), so a p99 outlier decomposes
// into named stages instead of staying one opaque number.
//
// The layer has two modes running at once:
//
//   - Always-on: every request feeds per-stage latency histograms
//     (dsm_svc_stage_ns{stage=...} / dsm_cli_stage_ns{stage=...}) —
//     lock-free atomic adds on pre-registered handles, no allocation
//     on the request path (trace handles are pooled). Tail buckets
//     carry exemplar trace IDs, so a histogram spike points at a
//     concrete retained trace.
//
//   - Tail-sampled: a request whose total latency reaches the
//     recorder's threshold, ends in a non-OK status, or carries the
//     wire's force-sample flag retains its full stage timeline as a
//     Record in a bounded ring and (optionally) a bounded JSONL sink —
//     the forensics input of cmd/dsmtrace.
//
// Trace identity travels on the wire (protocol.Request.TraceID and the
// Sampled flag; responses echo the ID plus the server's stage timings
// when sampled), so the client-side record of a call and the
// server-side record of its handling share one ID and cmd/dsmtrace can
// join them.
package reqtrace

import (
	"crypto/rand"
	"encoding/binary"
	mrand "math/rand"
	"sync/atomic"
	"time"
)

// Stage names one leg of a request's lifecycle. Server stages cover
// the dsmd request path in order; client stages cover the caller's
// side of the same call. The two sets share one enum so a joined
// timeline (cmd/dsmtrace) renders from a single namespace.
type Stage uint8

const (
	// StageAdmission is decode-to-admission on the server: the drain
	// gate, the load-shedding watermark and request validation.
	StageAdmission Stage = iota
	// StageDedup is the exactly-once window lookup, including any wait
	// for an in-flight first attempt of the same (SID, OpSeq).
	StageDedup
	// StageFrontierWait is token admission: how long the request waited
	// for the replica's applied frontier to dominate its session token.
	StageFrontierWait
	// StageBatchQueue is kept so its name still parses, but no server
	// path marks it any more: a write is issued on its own request's
	// goroutine, so its histogram stays empty.
	StageBatchQueue
	// StageApply is the core issue: node.WriteMeta (writes) or
	// node.ReadMeta (reads) plus the frontier snapshot for the
	// response token.
	StageApply
	// StageRespond is response encoding and queueing, plus the socket
	// write of every queued response when this sender is the writer.
	StageRespond

	// StageBackoff is client-side: accumulated retry backoff sleeps.
	StageBackoff
	// StageSend is client-side: encoding and queueing the request, plus
	// the socket write of every queued request when this sender writes.
	StageSend
	// StageAwait is client-side: waiting for the response frame —
	// network, server time, and any reconnect/replay the call survived.
	StageAwait

	// NumStages sizes per-stage arrays.
	NumStages

	// NumServerStages bounds the stage indexes a response may echo on
	// the wire: exactly the server-side prefix of the enum.
	NumServerStages = StageRespond + 1
)

var stageNames = [NumStages]string{
	StageAdmission:    "admission",
	StageDedup:        "dedup",
	StageFrontierWait: "frontier_wait",
	StageBatchQueue:   "batch_queue",
	StageApply:        "apply",
	StageRespond:      "respond",
	StageBackoff:      "backoff",
	StageSend:         "send",
	StageAwait:        "await",
}

// String names the stage as it appears in metric labels and Records.
func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "stage(?)"
}

// ParseStage maps a stage name back to its enum value; ok is false for
// unknown names (a Record written by a newer binary).
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// NewTraceID draws a random nonzero trace ID; zero on the wire means
// "no trace context".
func NewTraceID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded fallback, unique enough for exemplars and sampling.
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// SampleRate is a client-side coin for the wire's force-sample flag.
type SampleRate float64

// Hit draws one decision. Rates outside (0,1] never / always hit.
func (r SampleRate) Hit() bool {
	if r <= 0 {
		return false
	}
	if r >= 1 {
		return true
	}
	return mrand.Float64() < float64(r)
}

// StageNs is one stage's share of a Record's timeline.
type StageNs struct {
	// Stage is the stage name (Stage.String()).
	Stage string `json:"stage"`
	// Ns is the nanoseconds the request spent in the stage.
	Ns int64 `json:"ns"`
}

// Record is one tail-sampled request timeline — the JSONL document
// cmd/dsmtrace analyzes. Server records and client records of the same
// call share TraceID.
type Record struct {
	// TraceID joins the client and server records of one call; 0 on a
	// server record means the request carried no trace context.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Origin is the recorder's vantage point: "server" or "client".
	Origin string `json:"origin"`
	// Kind is the request kind: "ping", "read" or "write".
	Kind string `json:"kind"`
	// Status is the outcome (protocol.StatusString, or the client's
	// error class).
	Status string `json:"status"`
	// Proc is the serving replica (-1 when none was reached).
	Proc int `json:"proc"`
	// Var is the variable operated on (-1 for pings).
	Var int `json:"var"`
	// StartUnixNs is the wall-clock start (UnixNano) for ordering
	// records across processes.
	StartUnixNs int64 `json:"start_unix_ns"`
	// TotalNs is the end-to-end latency the recorder observed.
	TotalNs int64 `json:"total_ns"`
	// Stages is the per-stage decomposition, enum order, nonzero only.
	Stages []StageNs `json:"stages,omitempty"`
	// WriteProc and WriteSeq link a write (or the read's source write)
	// to the cluster's causal-propagation spans: obs.Span records the
	// same (proc, seq) for issue→apply at every remote replica.
	// WriteSeq 0 means no linkage.
	WriteProc int `json:"write_proc,omitempty"`
	WriteSeq  int `json:"write_seq,omitempty"`
	// Attempts counts wire attempts on a client record (1 = no retry).
	Attempts int `json:"attempts,omitempty"`
	// ServerStages, on a client record, is the server's echoed stage
	// timeline for the final attempt (from the response trace field).
	ServerStages []StageNs `json:"server_stages,omitempty"`
	// Err carries the response error detail, when any.
	Err string `json:"err,omitempty"`
}

// StageSum returns the sum of the record's own stage nanoseconds.
func (r Record) StageSum() int64 {
	var n int64
	for _, s := range r.Stages {
		n += s.Ns
	}
	return n
}

// ServerStageSum returns the sum of the echoed server stages.
func (r Record) ServerStageSum() int64 {
	var n int64
	for _, s := range r.ServerStages {
		n += s.Ns
	}
	return n
}

// Req is one in-flight request's trace state: identity, the stage
// clock, and the metadata End folds into histograms and Records. Reqs
// are pooled by the Recorder; callers must not retain one past End.
//
// A Req takes no lock: only the goroutine currently driving the request
// touches it, and every hand-off of a request between goroutines (a
// go statement, a channel) orders the marks before and after it.
type Req struct {
	// TraceID and Sampled mirror the wire trace context.
	TraceID uint64
	Sampled bool
	// WriteProc and WriteSeq are the span-linkage identity (see
	// Record); set by the server when the write is issued.
	WriteProc int
	WriteSeq  int
	// Attempts counts wire attempts (client side).
	Attempts int

	start time.Time     // the one wall-clock read, with its monotonic reading
	last  time.Duration // monotonic time since start at the previous mark
	ns    [NumStages]int64
}

// Start returns the time Begin read: the request's start.
func (q *Req) Start() time.Time { return q.start }

// Mark attributes the time since the previous mark (or Begin) to
// stage. It reads only the monotonic clock.
func (q *Req) Mark(stage Stage) {
	if q == nil {
		return
	}
	now := time.Since(q.start)
	q.ns[stage] += int64(now - q.last)
	q.last = now
}

// Add attributes d to stage directly, without moving the clock —
// for spans measured elsewhere (the client's backoff sleeps).
func (q *Req) Add(stage Stage, d time.Duration) {
	if q == nil {
		return
	}
	q.ns[stage] += d.Nanoseconds()
}

// StageDur returns the nanoseconds attributed to stage so far.
func (q *Req) StageDur(stage Stage) int64 {
	if q == nil {
		return 0
	}
	return q.ns[stage]
}

// Stages renders the nonzero stages in enum order, appending to dst.
func (q *Req) Stages(dst []StageNs) []StageNs {
	for s := Stage(0); s < NumStages; s++ {
		if q.ns[s] > 0 {
			dst = append(dst, StageNs{Stage: s.String(), Ns: q.ns[s]})
		}
	}
	return dst
}

// ServerStages renders the nonzero server-side stages as the wire's
// (stage, ns) pairs for the response trace field.
func (q *Req) ServerStages(dst [][2]uint64) [][2]uint64 {
	for s := Stage(0); s < NumServerStages; s++ {
		if q.ns[s] > 0 {
			dst = append(dst, [2]uint64{uint64(s), uint64(q.ns[s])})
		}
	}
	return dst
}

// exemplar is one tail-bucket trace ID, updated with a plain atomic
// store: last writer wins, which is exactly the "a recent slow trace"
// semantics exemplars promise.
type exemplar struct {
	id atomic.Uint64
}
