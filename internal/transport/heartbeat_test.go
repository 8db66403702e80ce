package transport

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHeartbeatConfigValidate(t *testing.T) {
	bad := []HeartbeatConfig{
		{Procs: 0, Interval: time.Millisecond},
		{Procs: 2, Interval: 0},
		{Procs: 2, Interval: -time.Millisecond},
		{Procs: 2, Interval: time.Millisecond, SuspectAfter: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewDetector(nil, HeartbeatConfig{Procs: 0, Interval: time.Millisecond}, nil); err == nil {
		t.Error("NewDetector accepted a bad config")
	}
}

// TestDetectorSuspectAndRecover runs a detector over a real Net: a
// process marked down goes silent, every live observer suspects it
// (EvSuspect), and marking it up again clears the suspicion on the
// next heartbeat (EvAlive).
func TestDetectorSuspectAndRecover(t *testing.T) {
	const procs = 3
	net, err := New(Config{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	var mu sync.Mutex
	var events []NetEvent
	det, err := NewDetector(net, HeartbeatConfig{
		Procs:        procs,
		Interval:     time.Millisecond,
		SuspectAfter: 4 * time.Millisecond,
	}, func(e NetEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	// Route heartbeats to the detector like the engine does.
	for p := 0; p < procs; p++ {
		p := p
		net.Register(p, func(m Message) {
			if m.Heartbeat {
				det.Heard(p, m.From)
			}
		})
	}
	det.Start()

	count := func(k NetEventKind, peer int) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, e := range events {
			if e.Kind == k && e.From == peer {
				n++
			}
		}
		return n
	}
	waitFor := func(what string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if pred() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	trusted := func(p int) bool {
		for o := 0; o < 3; o++ {
			if slices.Contains(det.Suspects(o), p) {
				return false
			}
		}
		return true
	}

	// Everyone is probing: no suspicions in steady state.
	waitFor("steady probing", func() bool { return trusted(0) && trusted(1) && trusted(2) })
	if n := count(EvSuspect, 1); n != 0 {
		t.Fatalf("%d premature suspicions", n)
	}

	det.SetDown(1, true)
	waitFor("suspicion of p2", func() bool {
		return !trusted(1) && count(EvSuspect, 1) >= 1
	})
	// Both live observers eventually suspect the silent peer.
	waitFor("both observers", func() bool {
		got := append(det.Suspects(0), det.Suspects(2)...)
		return len(got) == 2 && got[0] == 1 && got[1] == 1
	})
	// A down process accuses nobody.
	if s := det.Suspects(1); len(s) != 0 {
		t.Fatalf("down observer suspects %v", s)
	}

	det.SetDown(1, false)
	waitFor("p2 trusted again", func() bool {
		return trusted(1) && count(EvAlive, 1) >= 1
	})

	// Close is idempotent.
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatBypassesReliable: heartbeat frames must flow through the
// reliability sublayer without sequence numbers, acks, retransmission
// or dedup — every probe sent is delivered exactly once, and the resend
// buffers stay empty.
func TestHeartbeatBypassesReliable(t *testing.T) {
	r, err := NewFaulty(Config{Procs: 2}, ChaosConfig{}, ReliableConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var mu sync.Mutex
	beats := 0
	r.Register(0, func(m Message) {})
	r.Register(1, func(m Message) {
		mu.Lock()
		if m.Heartbeat {
			beats++
		}
		mu.Unlock()
	})
	const sent = 20
	for i := 0; i < sent; i++ {
		r.Send(Message{From: 0, To: 1, Heartbeat: true})
	}
	r.Flush()
	mu.Lock()
	got := beats
	mu.Unlock()
	if got != sent {
		t.Fatalf("delivered %d of %d heartbeats", got, sent)
	}
	if u := r.Unacked(); u != 0 {
		t.Fatalf("%d heartbeats buffered for retransmission", u)
	}
}

// TestNetEventKindStringExhaustive mirrors the trace-side test: every
// kind up to the sentinel must have a name.
func TestNetEventKindStringExhaustive(t *testing.T) {
	want := map[NetEventKind]string{
		EvDrop: "net-drop", EvDuplicate: "net-dup", EvRetransmit: "retransmit",
		EvDupDiscard: "dup-discard", EvSuspect: "suspect", EvAlive: "alive",
	}
	if len(want) != int(numNetEventKinds) {
		t.Fatalf("test table has %d kinds, sentinel says %d", len(want), int(numNetEventKinds))
	}
	for k := NetEventKind(0); k < numNetEventKinds; k++ {
		got := k.String()
		if got != want[k] {
			t.Errorf("kind %d = %q, want %q", int(k), got, want[k])
		}
		if strings.Contains(got, "NetEventKind(") {
			t.Errorf("kind %d has no name entry", int(k))
		}
	}
	if got := NetEventKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}
