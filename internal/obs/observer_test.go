package obs

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/trace"
)

// TestKindFamiliesExhaustive pins the event-kind → counter-family table
// to trace.NumKinds: adding an event kind without naming its metric
// family fails here instead of silently dropping events on the floor.
func TestKindFamiliesExhaustive(t *testing.T) {
	seen := make(map[string]trace.EventKind)
	for k := 0; k < trace.NumKinds; k++ {
		f := kindFamilies[k]
		if f.name == "" || f.help == "" {
			t.Errorf("event kind %v has no metric family", trace.EventKind(k))
			continue
		}
		if !strings.HasPrefix(f.name, "dsm_") || !strings.HasSuffix(f.name, "_total") {
			t.Errorf("family %q for %v breaks the dsm_*_total convention", f.name, trace.EventKind(k))
		}
		if prev, dup := seen[f.name]; dup {
			t.Errorf("family %q claimed by both %v and %v", f.name, prev, trace.EventKind(k))
		}
		seen[f.name] = trace.EventKind(k)
	}
}

func newTestObserver(t *testing.T, procs int, opts ...func(*Options)) *Observer {
	t.Helper()
	o := Options{Procs: procs, Protocol: "optp"}
	for _, f := range opts {
		f(&o)
	}
	return NewObserver(o)
}

func TestObserverSpanLifecycle(t *testing.T) {
	o := newTestObserver(t, 3)
	w := history.WriteID{Proc: 0, Seq: 0}
	o.Observe(trace.Event{Kind: trace.Issue, Proc: 0, Time: 100, Write: w})
	// p1 receives deliverable, applies immediately.
	o.Observe(trace.Event{Kind: trace.Receipt, Proc: 1, Time: 150, Write: w})
	o.Observe(trace.Event{Kind: trace.Apply, Proc: 1, Time: 160, Write: w})
	// p2 receives out of causal order: buffered (a write delay), applies
	// later.
	o.Observe(trace.Event{Kind: trace.Receipt, Proc: 2, Time: 150, Write: w, Buffered: true})
	if got := o.Stats().Pending; got != 1 {
		t.Errorf("pending during buffer = %d, want 1", got)
	}
	o.Observe(trace.Event{Kind: trace.Apply, Proc: 2, Time: 300, Write: w})

	if got := o.Propagation().Count(); got != 2 {
		t.Errorf("propagation count = %d, want 2", got)
	}
	if got := o.Propagation().Sum(); got != (160-100)+(300-100) {
		t.Errorf("propagation sum = %d, want 260", got)
	}
	if got := o.DelayWait().Count(); got != 1 {
		t.Errorf("delay-wait count = %d, want 1", got)
	}
	if got := o.DelayWait().Sum(); got != 300-150 {
		t.Errorf("delay-wait sum = %d, want 150", got)
	}

	st := o.Stats()
	if st.Writes != 1 || st.Receipts != 2 || st.Applies != 2 {
		t.Errorf("stats = %+v, want writes=1 receipts=2 applies=2", st)
	}
	if st.Delays != 1 {
		t.Errorf("delays = %d, want 1", st.Delays)
	}
	if st.Pending != 0 {
		t.Errorf("pending after apply = %d, want 0", st.Pending)
	}

	spans := o.Spans()
	if len(spans) != 2 || o.SpanTotal() != 2 {
		t.Fatalf("spans = %d (total %d), want 2", len(spans), o.SpanTotal())
	}
	s1, s2 := spans[0], spans[1]
	if s1.Proc != 1 || s1.PropagationNs() != 60 || s1.BufferedWaitNs != 0 {
		t.Errorf("p1 span = %+v", s1)
	}
	if s2.Proc != 2 || s2.PropagationNs() != 200 || s2.BufferedWaitNs != 150 {
		t.Errorf("p2 span = %+v", s2)
	}
	if s1.WriteProc != 0 || s1.WriteSeq != 0 {
		t.Errorf("span trace ID = (%d,%d), want (0,0)", s1.WriteProc, s1.WriteSeq)
	}
}

func TestObserverDiscardAndDrop(t *testing.T) {
	o := newTestObserver(t, 2)
	w := history.WriteID{Proc: 0, Seq: 3}
	o.Observe(trace.Event{Kind: trace.Issue, Proc: 0, Time: 10, Write: w})
	// Writing-semantics skip: logical apply without a physical receipt.
	o.Observe(trace.Event{Kind: trace.Discard, Proc: 1, Time: 40, Write: w})
	spans := o.Spans()
	if len(spans) != 1 || !spans[0].Discarded {
		t.Fatalf("spans = %+v, want one discarded span", spans)
	}
	if got := spans[0].PropagationNs(); got != 30 {
		t.Errorf("discard propagation = %d, want 30", got)
	}

	// The late message of the skipped write: Drop resolves the buffered
	// wait without opening another span.
	o.Observe(trace.Event{Kind: trace.Receipt, Proc: 1, Time: 50, Write: w, Buffered: true})
	o.Observe(trace.Event{Kind: trace.Drop, Proc: 1, Time: 80, Write: w})
	if got := o.Stats().Pending; got != 0 {
		t.Errorf("pending after drop = %d, want 0", got)
	}
	if got := o.DelayWait().Sum(); got != 30 {
		t.Errorf("delay-wait sum = %d, want 30", got)
	}
	if got := o.SpanTotal(); got != 1 {
		t.Errorf("span total = %d, want 1 (drop must not open a span)", got)
	}
}

func TestObserverIgnoresForeignAndBogus(t *testing.T) {
	o := newTestObserver(t, 2)
	// Apply of a write the observer never saw issued: counted, no span.
	w := history.WriteID{Proc: 0, Seq: 9}
	o.Observe(trace.Event{Kind: trace.Apply, Proc: 1, Time: 5, Write: w})
	if got := o.SpanTotal(); got != 0 {
		t.Errorf("span total = %d, want 0 for pre-observer write", got)
	}
	if got := o.Stats().Applies; got != 1 {
		t.Errorf("applies = %d, want 1", got)
	}
	// Out-of-range events must not panic or count.
	o.Observe(trace.Event{Kind: trace.Issue, Proc: -1})
	o.Observe(trace.Event{Kind: trace.Issue, Proc: 7})
	o.Observe(trace.Event{Kind: trace.EventKind(250), Proc: 0})
	if got := o.Stats().Writes; got != 0 {
		t.Errorf("writes = %d, want 0 after bogus events", got)
	}
}

func TestObserverSpanRingWrap(t *testing.T) {
	o := newTestObserver(t, 2, func(op *Options) { op.SpanCapacity = 4 })
	for i := 0; i < 6; i++ {
		w := history.WriteID{Proc: 0, Seq: i}
		o.Observe(trace.Event{Kind: trace.Issue, Proc: 0, Time: int64(i * 10), Write: w})
		o.Observe(trace.Event{Kind: trace.Receipt, Proc: 1, Time: int64(i*10 + 1), Write: w})
		o.Observe(trace.Event{Kind: trace.Apply, Proc: 1, Time: int64(i*10 + 2), Write: w})
	}
	if got := o.SpanTotal(); got != 6 {
		t.Errorf("span total = %d, want 6", got)
	}
	spans := o.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained spans = %d, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := i + 2; sp.WriteSeq != want {
			t.Errorf("spans[%d].WriteSeq = %d, want %d (oldest-first, newest retained)", i, sp.WriteSeq, want)
		}
	}
}

func TestObserverWALSync(t *testing.T) {
	o := newTestObserver(t, 2)
	o.ObserveWALSync(0, 1500)
	o.ObserveWALSync(1, 2500)
	o.ObserveWALSync(99, 9999) // out of range: ignored
	reg := o.Registry()
	h0 := reg.Histogram("dsm_wal_fsync_ns", "", nil, L("protocol", "optp"), L("proc", "0"))
	h1 := reg.Histogram("dsm_wal_fsync_ns", "", nil, L("protocol", "optp"), L("proc", "1"))
	if h0.Count() != 1 || h0.Sum() != 1500 {
		t.Errorf("p0 fsync hist: count=%d sum=%d", h0.Count(), h0.Sum())
	}
	if h1.Count() != 1 || h1.Sum() != 2500 {
		t.Errorf("p1 fsync hist: count=%d sum=%d", h1.Count(), h1.Sum())
	}
}

func TestSnapshotString(t *testing.T) {
	o := newTestObserver(t, 2)
	w := history.WriteID{Proc: 0, Seq: 0}
	o.Observe(trace.Event{Kind: trace.Issue, Proc: 0, Time: 0, Write: w})
	o.Observe(trace.Event{Kind: trace.Receipt, Proc: 1, Time: 1, Write: w})
	o.Observe(trace.Event{Kind: trace.Apply, Proc: 1, Time: 2, Write: w})
	s := o.Stats().String()
	for _, want := range []string{"writes=1", "receipts=1", "prop_n=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot string %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "netdrops") || strings.Contains(s, "crashes") {
		t.Errorf("snapshot string %q should omit zero fault sections", s)
	}
}
