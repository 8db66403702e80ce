package transport

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestChaosConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ChaosConfig
		ok   bool
	}{
		{"zero is valid", ChaosConfig{}, true},
		{"moderate faults", ChaosConfig{LossRate: 0.2, DupRate: 0.1, ReorderRate: 0.05}, true},
		{"loss 1 forbidden", ChaosConfig{LossRate: 1}, false},
		{"negative loss", ChaosConfig{LossRate: -0.1}, false},
		{"dup over 1", ChaosConfig{DupRate: 1.5}, false},
		{"negative reorder delay", ChaosConfig{ReorderDelay: -time.Millisecond}, false},
		{"inverted partition", ChaosConfig{Partitions: []Partition{{Start: time.Second, End: 0}}}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestChaosLossDropsFrames(t *testing.T) {
	var obs collectObs
	ch, err := newNet(Config{Procs: 2}, ChaosConfig{LossRate: 0.5, Seed: 42}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	ch.Register(0, func(Message) {})
	ch.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })
	const msgs = 400
	for i := 1; i <= msgs; i++ {
		ch.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	ch.Flush()
	got := atomic.LoadInt64(&delivered)
	drops := obs.count(EvDrop)
	if got+int64(drops) != msgs {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, drops, msgs)
	}
	// With loss 0.5 over 400 frames, both outcomes must actually occur.
	if drops == 0 || got == 0 {
		t.Fatalf("degenerate loss sampling: delivered=%d dropped=%d", got, drops)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosDuplicatesFrames(t *testing.T) {
	var obs collectObs
	ch, err := newNet(Config{Procs: 2}, ChaosConfig{DupRate: 0.5, Seed: 7}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	ch.Register(0, func(Message) {})
	ch.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })
	const msgs = 200
	for i := 1; i <= msgs; i++ {
		ch.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	ch.Flush()
	dups := obs.count(EvDuplicate)
	if dups == 0 {
		t.Fatal("no duplicates sampled at rate 0.5")
	}
	if got := atomic.LoadInt64(&delivered); got != int64(msgs+dups) {
		t.Fatalf("delivered %d, want %d + %d duplicates", got, msgs, dups)
	}
	ch.Close()
}

func TestChaosPartitionWindow(t *testing.T) {
	var obs collectObs
	ch, err := newNet(Config{Procs: 4}, ChaosConfig{
		Partitions: []Partition{{Start: 0, End: 40 * time.Millisecond, A: []int{0, 1}, B: []int{2, 3}}},
	}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	var crossCut, sameSide int64
	for p := 0; p < 4; p++ {
		p := p
		ch.Register(p, func(m Message) {
			if (m.From < 2) != (p < 2) {
				atomic.AddInt64(&crossCut, 1)
			} else {
				atomic.AddInt64(&sameSide, 1)
			}
		})
	}
	// During the window: cross-cut traffic dies, same-side passes.
	ch.Send(Message{From: 0, To: 2, Update: upd(0, 1)})
	ch.Send(Message{From: 3, To: 1, Update: upd(3, 1)})
	ch.Send(Message{From: 0, To: 1, Update: upd(0, 2)})
	ch.Flush()
	if got := atomic.LoadInt64(&crossCut); got != 0 {
		t.Fatalf("%d frames crossed an active partition", got)
	}
	if got := atomic.LoadInt64(&sameSide); got != 1 {
		t.Fatalf("same-side delivery = %d, want 1", got)
	}
	if got := obs.count(EvDrop); got != 2 {
		t.Fatalf("partition drops = %d, want 2", got)
	}
	// After the window heals, the cut link works again.
	time.Sleep(45 * time.Millisecond)
	ch.Send(Message{From: 0, To: 2, Update: upd(0, 3)})
	ch.Flush()
	if got := atomic.LoadInt64(&crossCut); got != 1 {
		t.Fatalf("healed link delivered %d, want 1", got)
	}
	ch.Close()
}

// TestFaultDecisionsPinned: the faulty Net drops and duplicates exactly
// the frames the Chaos wrapper it replaced did for the same seed and
// send sequence, recorded below from that wrapper. Every 0→2 frame
// falls to the partition, and the 0→1 decisions show that those cuts
// drew nothing from the sampler.
func TestFaultDecisionsPinned(t *testing.T) {
	var obs collectObs
	n, err := newNet(Config{Procs: 3}, ChaosConfig{
		LossRate: 0.3, DupRate: 0.3, Seed: 11,
		Partitions: []Partition{{Start: 0, End: time.Hour, A: []int{0}, B: []int{2}}},
	}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var delivered atomic.Int64
	for p := 0; p < 3; p++ {
		n.Register(p, func(Message) { delivered.Add(1) })
	}
	const msgs = 60
	for i := 1; i <= msgs; i++ {
		n.Send(Message{From: 0, To: 1 + i%2, Update: upd(0, i)})
	}
	n.Flush()
	var drops, dups []int
	for _, e := range obs.events {
		switch e.Kind {
		case EvDrop:
			drops = append(drops, e.Msg.Update.ID.Seq)
		case EvDuplicate:
			dups = append(dups, e.Msg.Update.ID.Seq)
		}
	}
	wantDrops := []int{1, 2, 3, 5, 7, 8, 9, 11, 13, 14, 15, 16, 17, 19, 21, 23, 25, 27, 29,
		31, 32, 33, 34, 35, 37, 39, 40, 41, 43, 45, 47, 48, 49, 50, 51, 52, 53, 54, 55, 57, 58, 59}
	wantDups := []int{20, 28}
	if !slices.Equal(drops, wantDrops) || !slices.Equal(dups, wantDups) {
		t.Fatalf("dropped %v, duplicated %v; want %v and %v", drops, dups, wantDrops, wantDups)
	}
	if got, want := delivered.Load(), int64(msgs-len(wantDrops)+len(wantDups)); got != want {
		t.Fatalf("delivered %d frames, want %d", got, want)
	}
}

// TestFaultyStackExactlyOnce is the end-to-end transport property: the
// full faulty-Net→Reliable stack under heavy loss, duplication and
// reordering still delivers every message exactly once.
func TestFaultyStackExactlyOnce(t *testing.T) {
	var obs collectObs
	r, err := NewFaulty(
		Config{Procs: 3, MaxDelay: 200 * time.Microsecond, Seed: 3},
		ChaosConfig{LossRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, ReorderDelay: time.Millisecond, Seed: 9},
		ReliableConfig{RetransmitTimeout: 500 * time.Microsecond, Seed: 5},
		obs.obs,
	)
	if err != nil {
		t.Fatal(err)
	}
	var counts [3]atomic.Int64
	for p := 0; p < 3; p++ {
		p := p
		r.Register(p, func(Message) { counts[p].Add(1) })
	}
	const msgs = 150
	for i := 1; i <= msgs; i++ {
		Broadcast(r, 3, i%3, upd(i%3, i))
	}
	r.Flush()
	total := counts[0].Load() + counts[1].Load() + counts[2].Load()
	if total != 2*msgs {
		t.Fatalf("delivered %d messages, want exactly %d (loss or dup leaked)", total, 2*msgs)
	}
	if got := r.Unacked(); got != 0 {
		t.Fatalf("%d unacked frames after Flush", got)
	}
	if obs.count(EvDrop) == 0 || obs.count(EvDupDiscard) == 0 {
		t.Fatalf("chaos injected nothing: drops=%d dupdiscards=%d",
			obs.count(EvDrop), obs.count(EvDupDiscard))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNetEventKindStringExhaustive mirrors the trace-side test: every
// kind up to the sentinel must have a name.
func TestNetEventKindStringExhaustive(t *testing.T) {
	want := map[NetEventKind]string{
		EvDrop: "net-drop", EvDuplicate: "net-dup", EvRetransmit: "retransmit",
		EvDupDiscard: "dup-discard",
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
