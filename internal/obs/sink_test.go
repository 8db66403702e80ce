package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/trace"
)

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, 16)
	events := []trace.Event{
		{Seq: 0, Kind: trace.Issue, Proc: 0, Time: 10, Write: history.WriteID{Proc: 0, Seq: 0}, Var: 1, Val: 42},
		{Seq: 1, Kind: trace.Receipt, Proc: 1, Time: 20, Write: history.WriteID{Proc: 0, Seq: 0}, Var: 1, Val: 42, Buffered: true},
		{Seq: 2, Kind: trace.Apply, Proc: 1, Time: 30, Write: history.WriteID{Proc: 0, Seq: 0}, Var: 1, Val: 42},
	}
	for _, e := range events {
		s.Record(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Dropped(); got != 0 {
		t.Errorf("dropped = %d, want 0", got)
	}

	// Each line is one trace.JSONEvent — the same wire schema
	// Log.WriteJSON uses, minus the envelope.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var got []trace.Event
	for sc.Scan() {
		var je trace.JSONEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			t.Fatalf("line %d: %v", len(got), err)
		}
		e, err := je.Event()
		if err != nil {
			t.Fatalf("line %d: %v", len(got), err)
		}
		got = append(got, e)
	}
	if len(got) != len(events) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d round-trip = %+v, want %+v", i, got[i], events[i])
		}
	}
}

// blockedWriter blocks every Write until released, to wedge the drain
// goroutine deterministically.
type blockedWriter struct{ release chan struct{} }

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

func TestJSONLSinkDropsInsteadOfBlocking(t *testing.T) {
	w := &blockedWriter{release: make(chan struct{})}
	// bufio only hits the writer once its 4 KiB buffer fills, so feed
	// enough events through a tiny ring to wedge the drainer.
	s := NewJSONLSink(w, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			s.Record(trace.Event{Kind: trace.Issue, Proc: 0, Time: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked the producer")
	}
	if s.Dropped() == 0 {
		t.Error("expected overflow drops with a wedged writer")
	}
	close(w.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Record after Close must stay safe and count as a drop.
	before := s.Dropped()
	s.Record(trace.Event{Kind: trace.Issue})
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := s.Dropped(); got < before {
		t.Errorf("dropped went backwards: %d -> %d", before, got)
	}
}

func TestJSONLSinkRegisterMetrics(t *testing.T) {
	s := NewJSONLSink(io.Discard, 4)
	defer s.Close()
	reg := NewRegistry()
	s.RegisterMetrics(reg, L("protocol", "optp"))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `dsm_sink_dropped_total{protocol="optp"} 0`) {
		t.Errorf("exposition missing sink drop gauge:\n%s", sb.String())
	}
}

func TestStreamSpans(t *testing.T) {
	var buf bytes.Buffer
	st := NewStream[Span](&buf, 16, nil)
	spans := []Span{
		{WriteProc: 0, WriteSeq: 0, Proc: 1, IssueNs: 10, ReceiptNs: 20, ApplyNs: 30},
		{WriteProc: 0, WriteSeq: 1, Proc: 1, IssueNs: 40, ReceiptNs: 50, ApplyNs: 90, BufferedWaitNs: 40, Discarded: true},
	}
	for _, sp := range spans {
		st.Record(sp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var got []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		got = append(got, sp)
	}
	if len(got) != 2 || got[0] != spans[0] || got[1] != spans[1] {
		t.Errorf("round-trip = %+v, want %+v", got, spans)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	st.Record(Span{}) // safe after Close
}

func TestWriteSpans(t *testing.T) {
	o := NewObserver(Options{Procs: 2, Protocol: "optp"})
	w := history.WriteID{Proc: 0, Seq: 0}
	o.Observe(trace.Event{Kind: trace.Issue, Proc: 0, Time: 1, Write: w})
	o.Observe(trace.Event{Kind: trace.Receipt, Proc: 1, Time: 2, Write: w})
	o.Observe(trace.Event{Kind: trace.Apply, Proc: 1, Time: 3, Write: w})
	var buf bytes.Buffer
	if err := o.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	var sp Span
	if err := json.Unmarshal(buf.Bytes(), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.ApplyNs != 3 || sp.Proc != 1 {
		t.Errorf("dumped span = %+v", sp)
	}
}

func TestReporter(t *testing.T) {
	o := NewObserver(Options{Procs: 1, Protocol: "optp"})
	var buf bytes.Buffer
	r := NewReporter(o, &buf, time.Hour) // ticker never fires in-test
	r.Start()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[obs ") || !strings.Contains(out, "writes=0") {
		t.Errorf("reporter final line = %q", out)
	}
	if n := strings.Count(out, "\n"); n != 1 {
		t.Errorf("reporter printed %d lines, want exactly the final one", n)
	}
}
