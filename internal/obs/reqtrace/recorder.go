package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// stageBuckets spans the serving tier's useful range: 100ns (an
// uncontended admission check) to 10s (a frontier wait running out a
// generous WaitTimeout).
var stageBuckets = []int64{
	100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
}

// exemplarBucketFloor is the bound (ns) at and above which a stage
// sample stamps its trace ID as the stage's tail exemplar: the top
// buckets of stageBuckets, where "why is this slow" starts.
const exemplarBucketFloor = 5_000_000

// Config parameterizes a Recorder.
type Config struct {
	// Registry receives the stage histograms and sampler counters; nil
	// keeps them unregistered (the recorder still works — tests, and
	// servers running without a debug mux).
	Registry *obs.Registry
	// Origin labels records and metric families: "server" (dsm_svc_*)
	// or "client" (dsm_cli_*). Empty defaults to "server".
	Origin string
	// Labels are appended to every registered series (protocol, ...).
	Labels []obs.Label
	// Threshold is the tail-sampling latency bound: a request whose
	// total latency reaches it retains its full timeline. 0 defaults
	// to 20ms; Threshold <= -1ns disables latency-based sampling
	// (non-OK statuses and force-sampled requests still retain).
	Threshold time.Duration
	// Capacity bounds the retained-record ring; 0 defaults to
	// obs.DefaultCapacity.
	Capacity int
	// Sink, when set, receives every retained Record (under the
	// recorder lock — keep it non-blocking; an obs.Stream qualifies).
	Sink func(Record)
}

// Recorder is one vantage point's tracing state: always-on per-stage
// histograms plus the tail sampler. Begin/End are the request path;
// everything else is scrape/export plumbing.
//
// Drain contract: a record is visible in Records once End has returned.
// A server ends a request's trace after sending its response, so that
// the record holds the respond stage; the record is therefore visible
// once the request's handler has returned, not once the client has the
// response. A joiner of client and server records (a test, an offline
// join) drains the server first: service.Server.Shutdown returns only
// after every handler has.
type Recorder struct {
	origin    string
	threshold int64 // ns; <0 disables latency sampling
	hists     [NumStages]*obs.Histogram
	total     *obs.Histogram
	sampledC  *obs.Counter
	exemplars [NumStages]exemplar

	pool sync.Pool

	mu   sync.Mutex
	ring obs.Ring[Record]
	sink func(Record)
}

// NewRecorder builds a recorder; see Config.
func NewRecorder(cfg Config) *Recorder {
	origin := cfg.Origin
	if origin == "" {
		origin = "server"
	}
	thr := cfg.Threshold
	if thr == 0 {
		thr = 20 * time.Millisecond
	}
	r := &Recorder{
		origin:    origin,
		threshold: thr.Nanoseconds(),
		ring:      obs.NewRing[Record](cfg.Capacity),
		sink:      cfg.Sink,
	}
	if thr < 0 {
		r.threshold = -1
	}
	prefix := "dsm_svc"
	if origin == "client" {
		prefix = "dsm_cli"
	}
	if reg := cfg.Registry; reg != nil {
		for s := Stage(0); s < NumStages; s++ {
			labels := append([]obs.Label{obs.L("stage", s.String())}, cfg.Labels...)
			r.hists[s] = reg.Histogram(prefix+"_stage_ns",
				"per-stage request latency decomposition (reqtrace)", stageBuckets, labels...)
		}
		r.total = reg.Histogram(prefix+"_request_ns",
			"end-to-end request latency at this vantage point", stageBuckets, cfg.Labels...)
		r.sampledC = reg.Counter(prefix+"_trace_sampled_total",
			"requests whose full stage timeline was tail-sampled", cfg.Labels...)
	} else {
		for s := Stage(0); s < NumStages; s++ {
			r.hists[s] = obs.NewHistogram(stageBuckets)
		}
		r.total = obs.NewHistogram(stageBuckets)
		r.sampledC = &obs.Counter{}
	}
	r.pool.New = func() any { return &Req{} }
	return r
}

// Origin returns the recorder's vantage-point label.
func (r *Recorder) Origin() string { return r.origin }

// Threshold returns the tail-sampling latency bound in nanoseconds
// (negative: latency sampling disabled).
func (r *Recorder) Threshold() int64 { return r.threshold }

// Begin checks a pooled Req out and starts its clock. The caller must
// End it exactly once.
func (r *Recorder) Begin() *Req {
	q := r.pool.Get().(*Req)
	q.reset()
	return q
}

// Meta is the request metadata End needs to file a Record.
type Meta struct {
	// Kind is "ping", "read" or "write"; Status the outcome label.
	Kind, Status string
	// OK marks a successful outcome; non-OK requests always sample.
	OK bool
	// Proc is the serving replica; Var the variable (-1 when n/a).
	Proc, Var int
	// Err is the response's error detail (non-OK only).
	Err string
	// ServerStages, on a client-side End, is the server's echoed stage
	// timeline, folded into the retained record.
	ServerStages []StageNs
}

// End closes the request: total latency measured from Begin, every
// stage folded into its histogram, tail exemplars stamped, and — when
// the request qualifies — the full timeline retained as a Record. It
// returns the total nanoseconds and whether the request was sampled,
// then recycles q: the caller must not touch q afterwards.
func (r *Recorder) End(q *Req, m Meta) (total int64, retained bool) {
	total = time.Since(q.start).Nanoseconds()
	r.total.Observe(total)
	for s := Stage(0); s < NumStages; s++ {
		// ns is quiescent by End: every Mark has happened-before the
		// caller's End (channel handoffs), so reading without q.mu is
		// safe — but take it anyway; it is uncontended and free of doubt.
		d := q.StageDur(s)
		if d == 0 {
			continue
		}
		r.hists[s].Observe(d)
		if d >= exemplarBucketFloor && q.TraceID != 0 {
			r.exemplars[s].id.Store(q.TraceID)
		}
	}
	retained = q.Sampled || !m.OK || (r.threshold >= 0 && total >= r.threshold)
	if retained {
		rec := Record{
			TraceID:      q.TraceID,
			Origin:       r.origin,
			Kind:         m.Kind,
			Status:       m.Status,
			Proc:         m.Proc,
			Var:          m.Var,
			StartUnixNs:  q.startUnix,
			TotalNs:      total,
			Stages:       q.Stages(nil),
			WriteProc:    q.WriteProc,
			WriteSeq:     q.WriteSeq,
			Attempts:     q.Attempts,
			ServerStages: m.ServerStages,
			Err:          m.Err,
		}
		r.retain(rec)
		r.sampledC.Inc()
	}
	r.pool.Put(q)
	return total, retained
}

// Retain files an externally-built Record (the client folds the
// server's echoed stages in before retaining).
func (r *Recorder) Retain(rec Record) {
	r.retain(rec)
	r.sampledC.Inc()
}

func (r *Recorder) retain(rec Record) {
	r.mu.Lock()
	r.ring.Push(rec)
	if r.sink != nil {
		r.sink(rec)
	}
	r.mu.Unlock()
}

// Records returns a copy of the retained records, oldest first. When
// more than Capacity records were retained only the newest survive;
// Sampled reports how many ever qualified.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Values()
}

// Sampled returns how many requests ever qualified for tail sampling.
func (r *Recorder) Sampled() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// StageHistogram returns the live histogram of one stage.
func (r *Recorder) StageHistogram(s Stage) *obs.Histogram { return r.hists[s] }

// TotalHistogram returns the live end-to-end latency histogram.
func (r *Recorder) TotalHistogram() *obs.Histogram { return r.total }

// Exemplar returns the trace ID of the most recent sample of stage
// that landed in the tail buckets (>= 5ms), 0 when none did — the
// pointer from a histogram spike to a retained trace.
func (r *Recorder) Exemplar(s Stage) uint64 { return r.exemplars[s].id.Load() }

// ReadRecords decodes a JSONL record stream (the analyzer's input).
// Unknown fields are ignored; a malformed line aborts with its index.
func ReadRecords(rd io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(rd)
	for i := 0; ; i++ {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("reqtrace: record %d: %w", i, err)
		}
		out = append(out, rec)
	}
}
