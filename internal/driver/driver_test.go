package driver

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// host is a recording driver.Host. Applied fails on the write named by
// failOn.
type host struct {
	now     int64
	events  []trace.Event
	applied []history.WriteID
	sent    []protocol.Update
	failOn  history.WriteID
}

var errJournal = errors.New("journal full")

func (h *host) Now() int64                     { h.now++; return h.now }
func (h *host) Record(e trace.Event)           { h.events = append(h.events, e) }
func (h *host) RecordPair(e trace.Event)       { h.events = append(h.events, e, e.Twin()) }
func (h *host) Send(_ int, u protocol.Update)  { h.sent = append(h.sent, u) }
func (h *host) ReadDone(protocol.Update, bool) {}

func (h *host) Applied(u protocol.Update) error {
	h.applied = append(h.applied, u.ID)
	if u.ID == h.failOn {
		return errJournal
	}
	return nil
}

// kinds lists the events recorded since position from as "Kind write".
func (h *host) kinds(from int) []string {
	var out []string
	for _, e := range h.events[from:] {
		out = append(out, e.Kind.String()+" "+e.Write.String())
	}
	return out
}

// TestReceiveDedupUnderRecovery pins the duplicate-suppression
// behaviour of the receipt state machine when crash recovery is
// enabled: a duplicate of a buffered update — a second peer's answer to
// the same catch-up summary — must not be double-buffered and must
// record no events, and a stale duplicate of an already-applied update
// — a retransmission landing after catch-up recovered the write — must
// be dropped silently. This behaviour is what the write-ID index of the
// pending set implements in O(1).
func TestReceiveDedupUnderRecovery(t *testing.T) {
	// Craft the origin's updates off-cluster so delivery order is ours:
	// u2 causally follows u1 (same origin, consecutive seqs).
	origin := protocol.New(protocol.OptP, 0, 3, 1)
	u1, _ := origin.LocalWrite(0, 10)
	u2, _ := origin.LocalWrite(0, 20)

	h := &host{}
	d := New(h, protocol.New(protocol.OptP, 2, 3, 1), 3, true)

	d.Receive(u2) // arrives first: blocked on u1, buffered
	if got := d.Buffered(); got != 1 {
		t.Fatalf("pending after first u2: %d, want 1", got)
	}
	events := len(h.events)
	d.Receive(u2) // duplicate of a buffered update
	if got := d.Buffered(); got != 1 {
		t.Fatalf("pending after duplicate u2: %d, want 1 (no double-buffer)", got)
	}
	if got := len(h.events); got != events {
		t.Fatalf("duplicate of buffered update recorded %d events", got-events)
	}

	d.Receive(u1) // enabler arrives: applies, unblocks u2
	if got := d.Buffered(); got != 0 {
		t.Fatalf("pending after drain: %d, want 0", got)
	}
	v, _ := d.Replica().Read(0)
	if v != 20 {
		t.Fatalf("replica value %d, want 20", v)
	}

	// Stale duplicates of applied updates: dropped with no trace, in
	// either arrival order.
	events = len(h.events)
	d.Receive(u1)
	d.Receive(u2)
	d.Receive(u1)
	if got := len(h.events); got != events {
		t.Fatalf("stale duplicates recorded %d events", got-events)
	}
	if got := d.Buffered(); got != 0 || len(h.applied) != 2 {
		t.Fatalf("stale duplicates: %d buffered, %d applies, want 0 and 2", got, len(h.applied))
	}
}

// forwarded builds PartialRep traffic toward p2 (index 1) of three
// processes, where x1 is replicated everywhere and x2 only at p2 and p3,
// so p1's reads of x2 are served by p2:
//
//	p1: w01 = w(x1), w02 = w(x1)
//	p3: applies w01, reads x1, w21 = w(x1)   (w21 depends on w01)
//	p1: applies w21, reads x1, then forwards two reads of x2: req1, req2
//
// At p2, w02 waits for w01, w21 for w01, and both requests for w02 and
// w21.
func forwarded(t *testing.T) (shares protocol.ShareSets, w01, w02, w21, req1, req2 protocol.Update) {
	t.Helper()
	shares, err := protocol.NewShareSets([][]int{{0, 1, 2}, {1, 2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1 := protocol.NewPartialRep(0, 3, 2, shares)
	p3 := protocol.NewPartialRep(2, 3, 2, shares)
	w01, _ = p1.LocalWrite(0, 1)
	w02, _ = p1.LocalWrite(0, 2)
	p3.Apply(w01)
	p3.Read(0)
	w21, _ = p3.LocalWrite(0, 3)
	p1.Apply(w21)
	p1.Read(0)
	rr := p1.(protocol.RemoteReader)
	req1, server := rr.NewReadReq(1)
	req2, _ = rr.NewReadReq(1)
	if server != 1 {
		t.Fatalf("x2's reads from p1 go to p%d, want p2", server+1)
	}
	return shares, w01, w02, w21, req1, req2
}

// TestDrainProbesHeadPlusOne: a forwarded-read request blocked at the
// head of its origin's queue must not hide the deliverable write behind
// it. The head+1 probe applies that write in the same origin pass, so
// it lands before the next origin's; without the probe only the
// fixpoint scan would find it, after the later origin's writes.
func TestDrainProbesHeadPlusOne(t *testing.T) {
	shares, w01, w02, w21, req1, _ := forwarded(t)
	h := &host{}
	d := New(h, protocol.NewPartialRep(1, 3, 2, shares), 3, false)
	for _, u := range []protocol.Update{w02, req1, w21} {
		d.Receive(u)
	}
	if got := d.Buffered(); got != 3 {
		t.Fatalf("buffered %d, want 3", got)
	}
	from := len(h.events)
	d.Receive(w01)
	want := []string{
		"receipt " + w01.ID.String(), "apply " + w01.ID.String(),
		"apply " + w02.ID.String(), // head+1 of p1's queue, behind req1
		"apply " + w21.ID.String(),
		"read-serve " + req1.ID.String(),
	}
	if got := h.kinds(from); !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order\n got %v\nwant %v", got, want)
	}
	if last := h.events[len(h.events)-1]; len(h.sent) != 1 || !last.Buffered {
		t.Fatalf("request served %d times, last event %+v", len(h.sent), last)
	}
}

// TestDrainScansPastHeadPlusOne: with two blocked requests at the head
// of its origin's queue, the deliverable write sits at depth 2, where
// only the fixpoint scan looks. Left there, it would wedge the queue:
// both requests wait for it.
func TestDrainScansPastHeadPlusOne(t *testing.T) {
	shares, w01, w02, w21, req1, req2 := forwarded(t)
	h := &host{}
	d := New(h, protocol.NewPartialRep(1, 3, 2, shares), 3, false)
	for _, u := range []protocol.Update{w02, req1, req2, w01} {
		d.Receive(u)
	}
	if got := d.Buffered(); got != 2 {
		t.Fatalf("buffered %d after w01, want the two requests (w02 left behind)", got)
	}
	d.Receive(w21)
	if got := d.Buffered(); got != 0 {
		t.Fatalf("buffered %d after w21, want 0", got)
	}
	if len(h.sent) != 2 {
		t.Fatalf("served %d requests, want 2", len(h.sent))
	}
}

// TestDrainStopsOnFailedApplyHook: when the post-apply hook fails (the
// live runtime's journal is full), the driver stops on the spot — the
// failed apply is not traced, the drain goes no further, and later
// inputs are ignored.
func TestDrainStopsOnFailedApplyHook(t *testing.T) {
	origin := protocol.New(protocol.OptP, 0, 2, 1)
	u1, _ := origin.LocalWrite(0, 1)
	u2, _ := origin.LocalWrite(0, 2)
	u3, _ := origin.LocalWrite(0, 3)
	h := &host{failOn: u2.ID}
	d := New(h, protocol.New(protocol.OptP, 1, 2, 1), 2, false)
	d.Receive(u3)
	d.Receive(u2)
	from := len(h.events)
	d.Receive(u1) // applies u1, then the drain's apply of u2 fails
	want := []string{"receipt " + u1.ID.String(), "apply " + u1.ID.String()}
	if got := h.kinds(from); !reflect.DeepEqual(got, want) {
		t.Fatalf("events\n got %v\nwant %v", got, want)
	}
	if want := []history.WriteID{u1.ID, u2.ID}; !reflect.DeepEqual(h.applied, want) {
		t.Fatalf("hook saw %v, want %v (nothing after the failure)", h.applied, want)
	}
	events := len(h.events)
	d.Receive(u3)
	d.Receive(u1)
	if len(h.events) != events || len(h.applied) != 2 {
		t.Fatalf("stopped driver acted: %v", h.kinds(events))
	}
}

// TestFailedApplyRecordsNoReceipt: an unbuffered receipt is recorded
// together with its apply, after the post-apply hook. When the hook
// fails, the process has crash-stopped and the message counts as
// arriving after the crash: nothing is recorded, not even the receipt.
func TestFailedApplyRecordsNoReceipt(t *testing.T) {
	origin := protocol.New(protocol.OptP, 0, 2, 1)
	u1, _ := origin.LocalWrite(0, 1)
	h := &host{failOn: u1.ID}
	d := New(h, protocol.New(protocol.OptP, 1, 2, 1), 2, false)
	d.Receive(u1)
	if len(h.applied) != 1 || len(h.events) != 0 {
		t.Fatalf("hook ran %d times, events %v; want 1 and none", len(h.applied), h.kinds(0))
	}
}
