package transport

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

func clockUpd(p, seq int, c vclock.VC) protocol.Update {
	return protocol.Update{ID: history.WriteID{Proc: p, Seq: seq}, Var: 1, Val: int64(seq), Clock: c}
}

func TestCodecDeliversEqualUpdates(t *testing.T) {
	for _, mode := range []protocol.MetaMode{protocol.MetaDelta, protocol.MetaStab, protocol.MetaAuto} {
		inner, err := New(Config{Procs: 3, FIFO: true})
		if err != nil {
			t.Fatal(err)
		}
		c := WithCodec(inner, 3, mode)
		var mu sync.Mutex
		got := make(map[int][]protocol.Update)
		for p := 0; p < 3; p++ {
			p := p
			c.Register(p, func(m Message) {
				mu.Lock()
				got[p] = append(got[p], m.Update)
				mu.Unlock()
			})
		}
		clock := vclock.New(3)
		var sent []protocol.Update
		for i := 0; i < 50; i++ {
			clock[i%3]++
			u := clockUpd(0, i+1, clock.Clone())
			sent = append(sent, u)
			Broadcast(c, 3, 0, u)
		}
		c.Flush()
		mu.Lock()
		for _, p := range []int{1, 2} {
			if len(got[p]) != len(sent) {
				t.Fatalf("mode %v: p%d got %d of %d", mode, p, len(got[p]), len(sent))
			}
			for i, u := range got[p] {
				w := sent[i]
				if u.ID != w.ID || u.Val != w.Val || !u.Clock.Equal(w.Clock) {
					t.Fatalf("mode %v: p%d msg %d: %+v != %+v", mode, p, i, u, w)
				}
			}
		}
		mu.Unlock()
		st := c.Stats()
		if st.Frames != 100 || st.MetaBytes == 0 || st.PayloadBytes == 0 {
			t.Fatalf("mode %v: stats %+v", mode, st)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCodecBypassesControlFrames(t *testing.T) {
	inner, err := New(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := WithCodec(inner, 2, protocol.MetaDelta)
	var mu sync.Mutex
	var acks int
	c.Register(0, func(Message) {})
	c.Register(1, func(m Message) {
		if m.Ack {
			mu.Lock()
			acks++
			mu.Unlock()
		}
	})
	for i := 1; i <= 5; i++ {
		c.Send(Message{From: 0, To: 1, Seq: i, Ack: true})
	}
	c.Flush()
	mu.Lock()
	if acks != 5 {
		t.Fatalf("delivered %d acks", acks)
	}
	mu.Unlock()
	if st := c.Stats(); st.Frames != 0 {
		t.Fatalf("control frames were recoded: %+v", st)
	}
	c.Close()
}

func TestCodecDeltaShrinksSteadyState(t *testing.T) {
	// The wrapper's accounting must show the headline win: per-link
	// deltas collapse the O(P) clock to a few bytes once the link base
	// is warm.
	const procs = 16
	runBytes := func(mode protocol.MetaMode) uint64 {
		inner, err := New(Config{Procs: procs, FIFO: true})
		if err != nil {
			t.Fatal(err)
		}
		c := WithCodec(inner, procs, mode)
		for p := 0; p < procs; p++ {
			c.Register(p, func(Message) {})
		}
		clock := vclock.New(procs)
		for i := 0; i < 200; i++ {
			clock[0]++
			Broadcast(c, procs, 0, clockUpd(0, i+1, clock.Clone()))
		}
		c.Flush()
		st := c.Stats()
		c.Close()
		return st.MetaBytes
	}
	off := runBytes(protocol.MetaOff)
	delta := runBytes(protocol.MetaDelta)
	if delta*2 >= off {
		t.Fatalf("delta meta bytes %d not < half of off %d", delta, off)
	}
}

func TestCodecRegisterMetricsScrape(t *testing.T) {
	inner, err := New(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := WithCodec(inner, 2, protocol.MetaAuto)
	c.Register(0, func(Message) {})
	c.Register(1, func(Message) {})
	c.Send(Message{From: 0, To: 1, Update: clockUpd(0, 1, vclock.VC{1, 0})})
	c.Flush()

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg, obs.L("protocol", "optp"))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dsm_net_meta_bytes_total counter",
		"# TYPE dsm_net_payload_bytes_total counter",
		"dsm_net_frames_total",
		`codec="auto"`,
		`protocol="optp"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape output missing %q:\n%s", want, out)
		}
	}
	c.Close()
}

func TestTCPMetaRoundTrip(t *testing.T) {
	// The codec on real sockets: per-connection encoder/decoder pairs
	// must reproduce the update stream over loopback TCP.
	for _, mode := range []protocol.MetaMode{protocol.MetaOff, protocol.MetaDelta, protocol.MetaAuto} {
		tn, err := NewTCPMeta(3, mode)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []protocol.Update
		done := make(chan struct{})
		tn.Register(0, func(Message) {})
		tn.Register(2, func(Message) {})
		tn.Register(1, func(m Message) {
			mu.Lock()
			got = append(got, m.Update)
			if len(got) == 30 {
				close(done)
			}
			mu.Unlock()
		})
		clock := vclock.New(3)
		var sent []protocol.Update
		for i := 0; i < 30; i++ {
			clock[0]++
			u := clockUpd(0, i+1, clock.Clone())
			sent = append(sent, u)
			tn.Send(Message{From: 0, To: 1, Update: u})
		}
		<-done
		mu.Lock()
		for i, u := range got {
			w := sent[i]
			if u.ID != w.ID || u.Val != w.Val || !u.Clock.Equal(w.Clock) {
				t.Fatalf("mode %v: msg %d: %+v != %+v", mode, i, u, w)
			}
		}
		mu.Unlock()
		if st := tn.Stats(); st.Frames != 30 || st.MetaBytes == 0 {
			t.Fatalf("mode %v: stats %+v", mode, st)
		}
		if err := tn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
