package trace

import (
	"strings"
	"testing"

	"repro/internal/history"
)

var (
	w11 = history.WriteID{Proc: 0, Seq: 1}
	w12 = history.WriteID{Proc: 0, Seq: 2}
	w21 = history.WriteID{Proc: 1, Seq: 1}
)

// sampleLog builds a small two-process run: p1 writes twice, p2 buffers
// the second write until the first arrives, then reads.
func sampleLog() *Log {
	l := NewLog(2, 1)
	l.Append(Event{Kind: Issue, Proc: 0, Time: 0, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Send, Proc: 0, Time: 0, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Issue, Proc: 0, Time: 5, Write: w12, Var: 0, Val: 2})
	l.Append(Event{Kind: Send, Proc: 0, Time: 5, Write: w12, Var: 0, Val: 2})
	l.Append(Event{Kind: Receipt, Proc: 1, Time: 10, Write: w12, Var: 0, Val: 2, Buffered: true})
	l.Append(Event{Kind: Receipt, Proc: 1, Time: 20, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Apply, Proc: 1, Time: 20, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Apply, Proc: 1, Time: 20, Write: w12, Var: 0, Val: 2})
	l.Append(Event{Kind: Return, Proc: 1, Time: 30, Var: 0, Val: 2, From: w12})
	return l
}

func TestAppendAssignsSeq(t *testing.T) {
	l := sampleLog()
	for i, e := range l.Events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

func TestPerProc(t *testing.T) {
	per := sampleLog().PerProc()
	if len(per) != 2 {
		t.Fatalf("len = %d", len(per))
	}
	if len(per[0]) != 4 || len(per[1]) != 5 {
		t.Fatalf("split = %d, %d", len(per[0]), len(per[1]))
	}
	for p, evs := range per {
		for _, e := range evs {
			if e.Proc != p {
				t.Fatalf("event %v under proc %d", e, p)
			}
		}
	}
}

func TestHistoryReconstruction(t *testing.T) {
	h, err := sampleLog().History()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumOps() != 3 {
		t.Fatalf("ops = %d", h.NumOps())
	}
	ops := h.Ops()
	if !ops[0].IsWrite() || ops[0].ID != w11 {
		t.Fatalf("op0 = %v", ops[0])
	}
	if !ops[2].IsRead() || ops[2].From != w12 {
		t.Fatalf("op2 = %v", ops[2])
	}
}

// A process's Merge events become the After set of its next operation.
func TestHistoryMergeEdges(t *testing.T) {
	l := NewLog(2, 1)
	l.Append(Event{Kind: Issue, Proc: 0, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Apply, Proc: 1, Write: w11, Var: 0, Val: 1})
	l.Append(Event{Kind: Merge, Proc: 1, Write: w11})
	l.Append(Event{Kind: Issue, Proc: 1, Write: w21, Var: 0, Val: 2})
	h, err := l.History()
	if err != nil {
		t.Fatal(err)
	}
	ops := h.Ops()
	if len(ops) != 2 || len(ops[0].After) != 0 || len(ops[1].After) != 1 || ops[1].After[0] != w11 {
		t.Fatalf("ops = %+v, want w21 after w11", ops)
	}
	c, err := h.Causality()
	if err != nil {
		t.Fatal(err)
	}
	if !c.WriteBefore(w11, w21) {
		t.Fatal("merged write does not precede the next write in →co")
	}
}

func TestDelayExtraction(t *testing.T) {
	l := sampleLog()
	if got := l.DelayCount(); got != 1 {
		t.Fatalf("DelayCount = %d", got)
	}
	ds := l.Delays()
	if len(ds) != 1 {
		t.Fatalf("Delays = %v", ds)
	}
	d := ds[0]
	if d.Proc != 1 || d.Write != w12 || d.ReceiptAt != 10 || d.AppliedAt != 20 || d.Discarded {
		t.Fatalf("delay = %+v", d)
	}
	if d.Duration() != 10 {
		t.Fatalf("Duration = %d", d.Duration())
	}
	per := l.DelayCountPerProc()
	if per[0] != 0 || per[1] != 1 {
		t.Fatalf("per-proc = %v", per)
	}
}

func TestDelayResolvedByDiscard(t *testing.T) {
	l := NewLog(2, 1)
	l.Append(Event{Kind: Receipt, Proc: 1, Time: 10, Write: w11, Buffered: true})
	l.Append(Event{Kind: Discard, Proc: 1, Time: 25, Write: w11})
	ds := l.Delays()
	if len(ds) != 1 || !ds[0].Discarded || ds[0].Duration() != 15 {
		t.Fatalf("delays = %+v", ds)
	}
}

func TestCounts(t *testing.T) {
	l := sampleLog()
	if l.ReceiptCount() != 2 {
		t.Fatalf("receipts = %d", l.ReceiptCount())
	}
	if l.WritesIssued() != 2 {
		t.Fatalf("writes = %d", l.WritesIssued())
	}
	if l.ReadsReturned() != 1 {
		t.Fatalf("reads = %d", l.ReadsReturned())
	}
	if l.DiscardCount() != 0 {
		t.Fatalf("discards = %d", l.DiscardCount())
	}
}

func TestAppliesAt(t *testing.T) {
	l := sampleLog()
	at0 := l.AppliesAt(0)
	if len(at0) != 2 || at0[0] != w11 || at0[1] != w12 {
		t.Fatalf("AppliesAt(0) = %v", at0)
	}
	at1 := l.AppliesAt(1)
	if len(at1) != 2 || at1[0] != w11 || at1[1] != w12 {
		t.Fatalf("AppliesAt(1) = %v", at1)
	}
}

func TestLogicallyAppliedIncludesDiscards(t *testing.T) {
	l := NewLog(2, 1)
	l.Append(Event{Kind: Discard, Proc: 1, Time: 5, Write: w11})
	l.Append(Event{Kind: Apply, Proc: 1, Time: 5, Write: w21})
	got := l.LogicallyAppliedAt(1)
	if len(got) != 2 || got[0] != w11 || got[1] != w21 {
		t.Fatalf("logical applies = %v", got)
	}
	if len(l.AppliesAt(1)) != 1 {
		t.Fatal("strict applies should exclude discards")
	}
}

func TestBufferOccupancy(t *testing.T) {
	l := NewLog(2, 1)
	l.Append(Event{Kind: Receipt, Proc: 1, Time: 0, Write: w11, Buffered: true})
	l.Append(Event{Kind: Receipt, Proc: 1, Time: 10, Write: w12, Buffered: true})
	l.Append(Event{Kind: Apply, Proc: 1, Time: 20, Write: w11})
	l.Append(Event{Kind: Apply, Proc: 1, Time: 20, Write: w12})
	l.Append(Event{Kind: Return, Proc: 1, Time: 40, Var: 0, Val: 0})
	occ := l.BufferOccupancy()
	if occ.Max != 2 || occ.MaxPerProc[1] != 2 || occ.MaxPerProc[0] != 0 {
		t.Fatalf("occupancy = %+v", occ)
	}
	// Time-weighted mean: 1 for t∈[0,10), 2 for [10,20), 0 for [20,40):
	// (10 + 20 + 0) / 40 = 0.75.
	if occ.MeanTimeWeighted != 0.75 {
		t.Fatalf("mean = %f", occ.MeanTimeWeighted)
	}
}

func TestEventString(t *testing.T) {
	l := sampleLog()
	for _, e := range l.Events {
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	buffered := Event{Kind: Receipt, Proc: 1, Write: w11, Buffered: true}
	if !strings.Contains(buffered.String(), "BUFFERED") {
		t.Fatalf("buffered receipt string: %q", buffered.String())
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestEventKindStringExhaustive walks every kind up to the sentinel: a
// newly added kind without a name entry fails here instead of printing
// as a bare integer in traces.
func TestEventKindStringExhaustive(t *testing.T) {
	want := map[EventKind]string{
		Issue: "issue", Send: "send", Receipt: "receipt", Apply: "apply",
		Discard: "discard", Drop: "drop", Return: "return", Token: "token",
		NetDrop: "net-drop", Retransmit: "retransmit", DupDiscard: "dup-discard",
		Crash: "crash", Recover: "recover", Suspect: "suspect", Alive: "alive",
		ReadFwd: "read-fwd", ReadServe: "read-serve", Merge: "merge",
	}
	if len(want) != int(numEventKinds) {
		t.Fatalf("test table has %d kinds, sentinel says %d", len(want), int(numEventKinds))
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		got := k.String()
		if got != want[k] {
			t.Errorf("kind %d = %q, want %q", int(k), got, want[k])
		}
		if strings.Contains(got, "EventKind(") {
			t.Errorf("kind %d has no name entry", int(k))
		}
		// Every kind must render a full Event line mentioning its name
		// and process (no case of Event.String may drop the kind).
		e := Event{Seq: 3, Kind: k, Proc: 1, Time: 9, Write: w11, Var: 0, Val: 7}
		if s := e.String(); !strings.Contains(s, got) || !strings.Contains(s, "p2") {
			t.Errorf("event string for %v: %q", k, s)
		}
	}
	// The crash-recovery kinds carry extra payload in their renderings.
	rec := Event{Kind: Recover, Proc: 0, Val: 12}
	if !strings.Contains(rec.String(), "replayed 12") {
		t.Errorf("recover string: %q", rec.String())
	}
	sus := Event{Kind: Suspect, Proc: 0, Val: 2}
	if !strings.Contains(sus.String(), "p3") {
		t.Errorf("suspect string: %q", sus.String())
	}
}

func TestStats(t *testing.T) {
	st := sampleLog().Stats("OptP")
	if st.Protocol != "OptP" || st.Writes != 2 || st.Reads != 1 || st.Receipts != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Delays != 1 || st.DelayRate != 0.5 {
		t.Fatalf("delays = %d rate = %f", st.Delays, st.DelayRate)
	}
	if st.DelayDurations.Count != 1 || st.DelayDurations.Max != 10 {
		t.Fatalf("durations = %+v", st.DelayDurations)
	}
	if st.BufferMax != 1 {
		t.Fatalf("bufmax = %d", st.BufferMax)
	}
	if !strings.Contains(st.String(), "OptP") {
		t.Fatalf("stats string: %q", st.String())
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.String() != "n=0" {
		t.Fatalf("empty summary = %+v", s)
	}
	xs := []int64{5, 1, 3, 2, 4}
	s := Summarize(xs)
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 || s.Total != 15 {
		t.Fatalf("summary = %+v", s)
	}
	if xs[0] != 5 {
		t.Fatal("Summarize mutated input")
	}
	if s.StdDev < 1.41 || s.StdDev > 1.42 {
		t.Fatalf("stddev = %f", s.StdDev)
	}
	one := Summarize([]int64{7})
	if one.P50 != 7 || one.P95 != 7 || one.P99 != 7 {
		t.Fatalf("singleton quantiles = %+v", one)
	}
	if one.String() == "" {
		t.Fatal("empty string")
	}
	big := make([]int64, 100)
	for i := range big {
		big[i] = int64(i + 1)
	}
	bs := Summarize(big)
	if bs.P50 != 50 || bs.P95 != 95 || bs.P99 != 99 {
		t.Fatalf("quantiles = %+v", bs)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleLog().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+9 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "seq,kind,proc,time") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(out, "receipt") || !strings.Contains(out, "true") {
		t.Fatalf("csv body missing fields:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := sampleLog().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{`"num_procs": 2`, `"kind": "issue"`, `"buffered": true`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("json missing %q:\n%s", frag, out)
		}
	}
}

func TestVisibilityLatencies(t *testing.T) {
	l := sampleLog()
	lats := l.VisibilityLatencies()
	// w11 issued at 0, applied at p2 at 20 → 20; w12 issued at 5,
	// applied at 20 → 15.
	if len(lats) != 2 {
		t.Fatalf("latencies = %v", lats)
	}
	want := map[int64]bool{20: true, 15: true}
	for _, d := range lats {
		if !want[d] {
			t.Fatalf("unexpected latency %d in %v", d, lats)
		}
	}
}

func TestLogicallyAppliedPerProc(t *testing.T) {
	l := sampleLog()
	l.Append(Event{Kind: Discard, Proc: 0, Time: 40, Write: w21})
	all := l.LogicallyAppliedPerProc()
	if len(all) != l.NumProcs {
		t.Fatalf("got %d procs, want %d", len(all), l.NumProcs)
	}
	for p := 0; p < l.NumProcs; p++ {
		want := l.LogicallyAppliedAt(p)
		if len(all[p]) != len(want) {
			t.Fatalf("proc %d: got %v, want %v", p, all[p], want)
		}
		for i := range want {
			if all[p][i] != want[i] {
				t.Fatalf("proc %d: got %v, want %v", p, all[p], want)
			}
		}
	}
}
