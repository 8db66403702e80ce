package reqtrace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStageStringAndParseRoundTrip(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.Contains(name, "?") {
			t.Fatalf("stage %d has no name", s)
		}
		got, ok := ParseStage(name)
		if !ok || got != s {
			t.Fatalf("ParseStage(%q) = %v,%v, want %v,true", name, got, ok, s)
		}
	}
	if _, ok := ParseStage("no-such-stage"); ok {
		t.Fatal("ParseStage accepted an unknown name")
	}
	if got := Stage(200).String(); got != "stage(?)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestNewTraceIDNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		seen[id] = true
	}
	if len(seen) < 60 {
		t.Fatalf("trace IDs heavily colliding: %d unique of 64", len(seen))
	}
}

func TestSampleRate(t *testing.T) {
	if SampleRate(0).Hit() || SampleRate(-1).Hit() {
		t.Fatal("rate <= 0 must never hit")
	}
	if !SampleRate(1).Hit() || !SampleRate(2).Hit() {
		t.Fatal("rate >= 1 must always hit")
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if SampleRate(0.5).Hit() {
			hits++
		}
	}
	if hits < 300 || hits > 700 {
		t.Fatalf("rate 0.5 hit %d/1000 — badly skewed", hits)
	}
}

func TestReqMarkAttributesElapsed(t *testing.T) {
	r := NewRecorder(Config{Threshold: -time.Nanosecond})
	q := r.Begin()
	time.Sleep(2 * time.Millisecond)
	q.Mark(StageAdmission)
	time.Sleep(time.Millisecond)
	q.Mark(StageApply)
	q.Add(StageBackoff, 5*time.Millisecond)
	if d := q.StageDur(StageAdmission); d < (1 * time.Millisecond).Nanoseconds() {
		t.Fatalf("admission attributed %dns, want >= ~2ms", d)
	}
	if d := q.StageDur(StageApply); d <= 0 {
		t.Fatalf("apply attributed %dns, want > 0", d)
	}
	if d := q.StageDur(StageBackoff); d != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("Add attributed %dns, want exactly 5ms", d)
	}
	if d := q.StageDur(StageDedup); d != 0 {
		t.Fatalf("untouched stage has %dns", d)
	}
	stages := q.Stages(nil)
	if len(stages) != 3 {
		t.Fatalf("Stages rendered %d entries, want 3: %+v", len(stages), stages)
	}
	// Enum order, nonzero only.
	if stages[0].Stage != "admission" || stages[1].Stage != "apply" || stages[2].Stage != "backoff" {
		t.Fatalf("stage order wrong: %+v", stages)
	}
}

func TestReqNilSafe(t *testing.T) {
	var q *Req
	q.Mark(StageApply)
	q.Add(StageApply, time.Second)
	if q.StageDur(StageApply) != 0 {
		t.Fatal("nil Req returned nonzero duration")
	}
}

func TestServerStagesWirePairs(t *testing.T) {
	r := NewRecorder(Config{Threshold: -time.Nanosecond})
	q := r.Begin()
	q.Add(StageDedup, time.Microsecond)
	q.Add(StageApply, 2*time.Microsecond)
	q.Add(StageAwait, time.Second) // client stage: must not leak to the wire
	pairs := q.ServerStages(nil)
	if len(pairs) != 2 {
		t.Fatalf("ServerStages = %v, want 2 server-side pairs", pairs)
	}
	if pairs[0] != [2]uint64{uint64(StageDedup), 1000} || pairs[1] != [2]uint64{uint64(StageApply), 2000} {
		t.Fatalf("ServerStages pairs wrong: %v", pairs)
	}
}

func TestRecorderHistogramsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Config{Registry: reg, Origin: "server", Threshold: -time.Nanosecond})
	for i := 0; i < 10; i++ {
		q := r.Begin()
		q.Add(StageApply, time.Millisecond)
		r.End(q, Meta{Kind: "write", Status: "ok", OK: true, Proc: 0, Var: 1})
	}
	if got := r.StageHistogram(StageApply).Count(); got != 10 {
		t.Fatalf("apply histogram count = %d, want 10", got)
	}
	if got := r.TotalHistogram().Count(); got != 10 {
		t.Fatalf("total histogram count = %d, want 10", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"dsm_svc_stage_ns_bucket{",
		`stage="apply"`,
		"dsm_svc_request_ns_count 10",
		"dsm_svc_trace_sampled_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestRecorderClientPrefix(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Config{Registry: reg, Origin: "client", Threshold: -time.Nanosecond})
	q := r.Begin()
	q.Add(StageAwait, time.Millisecond)
	r.End(q, Meta{Kind: "read", Status: "ok", OK: true})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "dsm_cli_stage_ns_bucket{") || !strings.Contains(text, `stage="await"`) {
		t.Error("client recorder did not register dsm_cli_ series")
	}
}

func TestTailSamplingByThreshold(t *testing.T) {
	r := NewRecorder(Config{Threshold: 5 * time.Millisecond})
	fast := r.Begin()
	fast.Add(StageApply, time.Microsecond)
	if _, retained := r.End(fast, Meta{Kind: "read", Status: "ok", OK: true}); retained {
		t.Fatal("fast OK request was retained")
	}
	slow := r.Begin()
	slow.TraceID = 77
	time.Sleep(4 * time.Millisecond)
	slow.Mark(StageFrontierWait)
	time.Sleep(3 * time.Millisecond)
	slow.Mark(StageApply)
	total, retained := r.End(slow, Meta{Kind: "write", Status: "ok", OK: true, Proc: 2, Var: 3})
	if !retained {
		t.Fatalf("slow request (total=%dns) not retained at 5ms threshold", total)
	}
	recs := r.Records()
	if len(recs) != 1 {
		t.Fatalf("Records() = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != 77 || rec.Kind != "write" || rec.Proc != 2 || rec.Var != 3 {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if rec.StageSum() > rec.TotalNs {
		t.Fatalf("stage sum %d exceeds total %d", rec.StageSum(), rec.TotalNs)
	}
	if r.Sampled() != 1 {
		t.Fatalf("Sampled() = %d, want 1", r.Sampled())
	}
}

func TestTailSamplingNonOKAndForced(t *testing.T) {
	r := NewRecorder(Config{Threshold: time.Hour})
	bad := r.Begin()
	if _, retained := r.End(bad, Meta{Kind: "write", Status: "unavailable", OK: false, Err: "down"}); !retained {
		t.Fatal("non-OK request not retained")
	}
	forced := r.Begin()
	forced.Sampled = true
	if _, retained := r.End(forced, Meta{Kind: "read", Status: "ok", OK: true}); !retained {
		t.Fatal("force-sampled request not retained")
	}
	neither := r.Begin()
	if _, retained := r.End(neither, Meta{Kind: "read", Status: "ok", OK: true}); retained {
		t.Fatal("fast OK unforced request retained under 1h threshold")
	}
	if got := r.Records(); len(got) != 2 {
		t.Fatalf("Records() = %d, want 2", len(got))
	}
	if got := r.Records()[0].Err; got != "down" {
		t.Fatalf("error detail lost: %q", got)
	}
}

func TestThresholdDisabled(t *testing.T) {
	r := NewRecorder(Config{Threshold: -time.Nanosecond})
	q := r.Begin()
	time.Sleep(time.Millisecond)
	if _, retained := r.End(q, Meta{OK: true, Kind: "read", Status: "ok"}); retained {
		t.Fatal("latency sampling retained despite disabled threshold")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4, Threshold: time.Hour})
	for i := 0; i < 10; i++ {
		q := r.Begin()
		q.TraceID = uint64(i + 1)
		q.Sampled = true
		r.End(q, Meta{Kind: "read", Status: "ok", OK: true})
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("ring kept %d, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(i + 7); rec.TraceID != want {
			t.Fatalf("ring[%d].TraceID = %d, want %d (newest-4 oldest-first)", i, rec.TraceID, want)
		}
	}
	if r.Sampled() != 10 {
		t.Fatalf("Sampled() = %d, want 10", r.Sampled())
	}
}

func TestExemplarStampedOnTailSample(t *testing.T) {
	r := NewRecorder(Config{Threshold: -time.Nanosecond})
	q := r.Begin()
	q.TraceID = 42
	q.Add(StageFrontierWait, 50*time.Millisecond) // >= exemplar floor
	q.Add(StageApply, time.Microsecond)           // below floor
	r.End(q, Meta{Kind: "write", Status: "ok", OK: true})
	if got := r.Exemplar(StageFrontierWait); got != 42 {
		t.Fatalf("Exemplar(frontier_wait) = %d, want 42", got)
	}
	if got := r.Exemplar(StageApply); got != 0 {
		t.Fatalf("Exemplar(apply) = %d, want 0 (below floor)", got)
	}
}

func TestRecordJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(Config{Threshold: time.Hour})
	q := r.Begin()
	q.TraceID = 9
	q.Sampled = true
	q.WriteProc = 1
	q.WriteSeq = 3
	q.Attempts = 2
	q.Add(StageApply, time.Millisecond)
	r.End(q, Meta{Kind: "write", Status: "ok", OK: true, Proc: 1, Var: 0})
	var buf bytes.Buffer
	s := obs.NewStream[Record](&buf, 0, nil)
	for _, rec := range r.Records() {
		s.Record(rec)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("record stream: %v", err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("round-trip decoded %d records, want 1", len(got))
	}
	want := r.Records()[0]
	g := got[0]
	if g.TraceID != want.TraceID || g.WriteProc != want.WriteProc ||
		g.WriteSeq != want.WriteSeq || g.Attempts != want.Attempts ||
		g.TotalNs != want.TotalNs || len(g.Stages) != len(want.Stages) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", g, want)
	}
}

func TestReadRecordsMalformed(t *testing.T) {
	_, err := ReadRecords(strings.NewReader("{\"origin\":\"server\"}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed line decoded without error")
	}
}

func TestRecordStreamDrainsAndCounts(t *testing.T) {
	var buf syncBuffer
	s := obs.NewStream[Record](&buf, 8, nil)
	for i := 0; i < 5; i++ {
		s.Record(Record{TraceID: uint64(i + 1), Origin: "server", Kind: "read", Status: "ok"})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := ReadRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("sink wrote %d records, want 5", len(recs))
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", s.Dropped())
	}
	s.Record(Record{}) // after Close: safe, dropped or written — must not panic
}

func TestRecorderConcurrentEnds(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64, Threshold: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := r.Begin()
				q.TraceID = uint64(g*1000 + i + 1)
				q.Sampled = i%10 == 0
				q.Add(StageApply, time.Microsecond)
				r.End(q, Meta{Kind: "write", Status: "ok", OK: true})
			}
		}(g)
	}
	wg.Wait()
	if got := r.TotalHistogram().Count(); got != 1600 {
		t.Fatalf("total count = %d, want 1600", got)
	}
	if got := r.Sampled(); got != 160 {
		t.Fatalf("Sampled() = %d, want 160", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the sink's drain
// goroutine writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
