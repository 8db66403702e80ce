package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

func wr(src *srvConn, x int, v int64) writeReq {
	return writeReq{src: src, x: x, v: v, token: vclock.VC{}}
}

func TestCoalesceAdjacentSameConn(t *testing.T) {
	a := &srvConn{}
	got := coalesce([]writeReq{wr(a, 1, 10), wr(a, 1, 11), wr(a, 1, 12)})
	if len(got) != 1 {
		t.Fatalf("coalesce = %d entries, want 1", len(got))
	}
	if got[0].x != 1 || got[0].v != 12 {
		t.Fatalf("coalesce kept (%d,%d), want newest (1,12)", got[0].x, got[0].v)
	}
	if len(got[0].acks) != 3 {
		t.Fatalf("coalesced entry answers %d requests, want 3", len(got[0].acks))
	}
}

func TestCoalesceDifferentConnsNever(t *testing.T) {
	a, b := &srvConn{}, &srvConn{}
	got := coalesce([]writeReq{wr(a, 1, 10), wr(b, 1, 11), wr(a, 1, 12)})
	if len(got) != 3 {
		t.Fatalf("coalesce = %d entries, want 3: cross-connection writes must not merge", len(got))
	}
	for i, want := range []int64{10, 11, 12} {
		if got[i].v != want {
			t.Fatalf("entry %d = %d, want %d: cross-client order must be preserved", i, got[i].v, want)
		}
	}
}

func TestCoalesceDifferentVarsNever(t *testing.T) {
	a := &srvConn{}
	got := coalesce([]writeReq{wr(a, 1, 10), wr(a, 2, 20), wr(a, 1, 30)})
	if len(got) != 3 {
		t.Fatalf("coalesce = %d entries, want 3: an interleaved variable breaks adjacency", len(got))
	}
}

func TestCoalesceNilSrcNever(t *testing.T) {
	got := coalesce([]writeReq{wr(nil, 1, 10), wr(nil, 1, 11)})
	if len(got) != 2 {
		t.Fatalf("coalesce = %d entries, want 2: nil identity never merges", len(got))
	}
}

func TestCoalesceMixed(t *testing.T) {
	a, b := &srvConn{}, &srvConn{}
	batch := []writeReq{
		wr(a, 0, 1), wr(a, 0, 2), // merge → (0,2)
		wr(b, 0, 3),                           // barrier
		wr(b, 1, 4), wr(b, 1, 5), wr(b, 1, 6), // merge → (1,6)
		wr(a, 1, 7), // barrier (other conn)
	}
	got := coalesce(batch)
	want := []struct {
		x int
		v int64
	}{{0, 2}, {0, 3}, {1, 6}, {1, 7}}
	if len(got) != len(want) {
		t.Fatalf("coalesce = %d entries, want %d", len(got), len(want))
	}
	acks := 0
	for i, w := range want {
		if got[i].x != w.x || got[i].v != w.v {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", i, got[i].x, got[i].v, w.x, w.v)
		}
		acks += len(got[i].acks)
	}
	if acks != len(batch) {
		t.Fatalf("entries answer %d requests, want %d: every submitted write gets a reply", acks, len(batch))
	}
}

// A write submitted to a stopped pump is answered with StatusShutdown,
// also when its queue send wins the race against the stop signal after
// the loop's last drain: nothing is left to reply to it then.
func TestSubmitAfterStopAnswers(t *testing.T) {
	cl, err := core.NewCluster(core.Config{Processes: 1, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := &Server{cfg: Config{Cluster: cl}.withDefaults(), met: newMetrics(nil, "OptP")}
	p := newPump(s, 0)
	p.stop()
	for i := 0; i < 100; i++ {
		if r := p.submit(nil, protocol.Request{Kind: protocol.ReqWrite}, nil); r.Status != protocol.StatusShutdown {
			t.Fatalf("submit after stop: status %s, want shutdown", protocol.StatusString(r.Status))
		}
	}
}
