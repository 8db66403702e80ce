package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/transport"
)

// waitUntil polls pred for up to ten seconds.
func waitUntil(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeartbeatConfigValidate: negative detector timings are refused,
// a zero SuspectAfter defaults to four intervals, and a zero
// HeartbeatInterval runs no detector.
func TestHeartbeatConfigValidate(t *testing.T) {
	bad := []Config{
		{Processes: 0, Variables: 1, HeartbeatInterval: time.Millisecond},
		{Processes: 2, Variables: 1, HeartbeatInterval: -time.Millisecond},
		{Processes: 2, Variables: 1, HeartbeatInterval: time.Millisecond, SuspectAfter: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("NewCluster accepted config %d", i)
		}
	}
	c, err := NewCluster(Config{Processes: 2, Variables: 1, HeartbeatInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.det.suspectAfter; got != 4*time.Millisecond {
		t.Errorf("default SuspectAfter = %v, want 4ms", got)
	}
	c.Close()
	c, err = NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.det != nil || c.Suspects(0) != nil {
		t.Error("detector running with HeartbeatInterval unset")
	}
}

// TestDetectorSuspectAndRecover: a crashed process goes silent, every
// live observer suspects it, the crashed one accuses nobody, and its
// restart clears the suspicions.
func TestDetectorSuspectAndRecover(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 3, Variables: 1, WALDir: t.TempDir(),
		HeartbeatInterval: time.Millisecond,
		SuspectAfter:      4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "both observers suspect p2", func() bool {
		return slices.Equal(c.Suspects(0), []int{1}) && slices.Equal(c.Suspects(2), []int{1})
	})
	if s := c.Suspects(1); s != nil {
		t.Fatalf("down observer suspects %v", s)
	}
	if n := c.det.suspectedPairs(); n != 2 {
		t.Fatalf("suspected pairs = %d, want 2", n)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "p2 trusted again", func() bool {
		return !slices.Contains(c.Suspects(0), 1) && !slices.Contains(c.Suspects(2), 1) &&
			c.Log().AliveCount() >= 2
	})
}

// TestHeartbeatPartitionSuspects: summaries ride Reliable on the chaos
// stack. While a partition cuts p1↔p3, the two suspect each other and
// p2 suspects neither; once it heals, the retransmitted summaries land
// and both suspicions clear.
func TestHeartbeatPartitionSuspects(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 3, Variables: 1,
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectAfter:      50 * time.Millisecond,
		Chaos: transport.ChaosConfig{Seed: 1, Partitions: []transport.Partition{
			{Start: 0, End: 250 * time.Millisecond, A: []int{0}, B: []int{2}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.tr.(*transport.Reliable); !ok {
		t.Fatalf("transport is %T, want the chaos stack", c.tr)
	}
	waitUntil(t, "p1 and p3 suspect each other", func() bool {
		return slices.Contains(c.Suspects(0), 2) && slices.Contains(c.Suspects(2), 0)
	})
	if s0, s1, s2 := c.Suspects(0), c.Suspects(1), c.Suspects(2); len(s0) != 1 || s1 != nil || len(s2) != 1 {
		t.Fatalf("suspects = %v, %v, %v; want only the cut pair", s0, s1, s2)
	}
	for i := 0; i < 10; i++ {
		if err := c.Node(1).Write(0, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the heal clears both suspicions", func() bool {
		return c.Suspects(0) == nil && c.Suspects(2) == nil
	})
	quiesce(t, c)
	log := c.Log()
	for _, e := range log.Events {
		cut := (e.Proc == 0 && e.Val == 2) || (e.Proc == 2 && e.Val == 0)
		if e.Kind == trace.Suspect && !cut {
			t.Errorf("p%d suspected p%d across a link the partition does not cut", e.Proc+1, e.Val+1)
		}
	}
	if n := log.AliveCount(); n < 2 {
		t.Errorf("%d alive events, want the two suspicions cleared", n)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() {
		t.Fatalf("audit: %v", rep)
	}
}

// sendLog wraps a Transport and counts each update's sends per
// destination, and the liveness summaries sent.
type sendLog struct {
	transport.Transport
	mu       sync.Mutex
	sends    map[sendKey]int
	liveness int
}

type sendKey struct {
	to int
	id history.WriteID
}

func (l *sendLog) Send(m transport.Message) {
	l.mu.Lock()
	switch u := m.Update; {
	case u.Summary && u.Val == liveSummary:
		l.liveness++
	case !u.Summary:
		l.sends[sendKey{m.To, u.ID}]++
	}
	l.mu.Unlock()
	l.Transport.Send(m)
}

// TestHeartbeatSummaryNeverAnswered: a liveness summary is heard, never
// answered. Answering it under WAL would re-send every archived update
// still in flight to its sender, so with writes in flight and summaries
// crossing them, no update may reach a peer twice.
func TestHeartbeatSummaryNeverAnswered(t *testing.T) {
	inner, err := transport.New(transport.Config{
		Procs: 3, MinDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &sendLog{Transport: inner, sends: make(map[sendKey]int)}
	c, err := NewCluster(Config{
		Processes: 3, Variables: 2, Transport: tr, WALDir: t.TempDir(),
		HeartbeatInterval: 500 * time.Microsecond,
		SuspectAfter:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		if err := c.Node(i%3).Write(i%2, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	quiesce(t, c)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.liveness == 0 {
		t.Fatal("no liveness summary was sent")
	}
	for k, n := range tr.sends {
		if n > 1 {
			t.Errorf("%v sent to p%d %d times", k.id, k.to+1, n)
		}
	}
}
