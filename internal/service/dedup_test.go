package service

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
)

// dedupStep is one operation on a dedupTable and what it must yield.
// do is "claim" (want: owned, cached, wait or tooOld), "ok" / "fail"
// (complete with StatusOK / StatusUnavailable), "woken" / "parked"
// (the wait channel the last "wait" claim of (sid, seq) returned is
// closed / still open), "sessions" (want: the sorted live sids),
// "entries" (want: the session's entry count) or "floor".
type dedupStep struct {
	do       string
	sid, seq uint64
	want     string
}

func TestDedupTable(t *testing.T) {
	claim := func(sid, seq uint64, want string) dedupStep { return dedupStep{"claim", sid, seq, want} }
	ok := func(sid, seq uint64) dedupStep { return dedupStep{"ok", sid, seq, ""} }
	fail := func(sid, seq uint64) dedupStep { return dedupStep{"fail", sid, seq, ""} }
	check := func(do string, sid uint64, want string) dedupStep { return dedupStep{do, sid, 0, want} }
	// run claims and completes seqs lo..hi of sid in order.
	run := func(sid, lo, hi uint64) []dedupStep {
		var s []dedupStep
		for seq := lo; seq <= hi; seq++ {
			s = append(s, claim(sid, seq, "owned"), ok(sid, seq))
		}
		return s
	}
	cat := func(parts ...[]dedupStep) []dedupStep {
		var s []dedupStep
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}

	cases := []struct {
		name        string
		window      int
		maxSessions int
		steps       []dedupStep
	}{
		{"claim complete cached", 8, 4, []dedupStep{
			claim(1, 1, "owned"),
			claim(1, 1, "wait"),
			{"parked", 1, 1, ""},
			ok(1, 1),
			{"woken", 1, 1, ""},
			claim(1, 1, "cached"),
			check("entries", 1, "1"),
		}},
		{"tooOld below the floor", 4, 4, cat(run(1, 1, 6), []dedupStep{
			check("floor", 1, "3"),
			claim(1, 2, "tooOld"),
			claim(1, 3, "cached"),
			check("entries", 1, "4"),
		})},
		{"out-of-order completion inside the window", 4, 4, []dedupStep{
			claim(1, 1, "owned"), claim(1, 2, "owned"), claim(1, 3, "owned"), claim(1, 4, "owned"),
			ok(1, 3), ok(1, 1),
			claim(1, 2, "wait"),
			ok(1, 4), ok(1, 2),
			{"woken", 1, 2, ""},
			claim(1, 1, "cached"), claim(1, 2, "cached"), claim(1, 3, "cached"), claim(1, 4, "cached"),
			check("floor", 1, "1"),
			claim(1, 7, "owned"), ok(1, 7),
			check("floor", 1, "4"),
			claim(1, 3, "tooOld"), claim(1, 4, "cached"),
			check("entries", 1, "2"),
		}},
		{"a failed write releases its claim", 8, 4, []dedupStep{
			claim(1, 5, "owned"),
			claim(1, 5, "wait"),
			fail(1, 5),
			{"woken", 1, 5, ""},
			check("entries", 1, "0"),
			claim(1, 5, "owned"),
			ok(1, 5),
			claim(1, 5, "cached"),
		}},
		{"a floor jump larger than the entry count", 4, 4, cat(run(1, 1, 3), []dedupStep{
			claim(1, 1000, "owned"), ok(1, 1000),
			check("floor", 1, "997"),
			check("entries", 1, "1"),
			claim(1, 3, "tooOld"),
			claim(1, 996, "tooOld"),
			claim(1, 997, "owned"),
			claim(1, 1000, "cached"),
		})},
		{"the floor passing an unresolved claim resolves it", 2, 1, []dedupStep{
			claim(1, 1, "owned"),
			claim(1, 1, "wait"),
			claim(1, 2, "owned"), ok(1, 2),
			claim(1, 3, "owned"), ok(1, 3),
			check("floor", 1, "2"),
			{"woken", 1, 1, ""},
			claim(1, 1, "tooOld"),
			ok(1, 1), // the owner finishes late: nothing left to cache
			check("entries", 1, "2"),
			claim(2, 1, "owned"), // session 1 has no claim left, so it is evictable
			check("sessions", 0, "[2]"),
		}},
		{"LRU eviction never drops a session with a pending claim", 8, 2, []dedupStep{
			claim(1, 1, "owned"), // session 1: oldest, pending
			claim(2, 1, "owned"), ok(2, 1),
			claim(3, 1, "owned"), // evicts 2, the only idle session
			check("sessions", 0, "[1 3]"),
			claim(4, 1, "owned"), // every session is pending: over the cap
			check("sessions", 0, "[1 3 4]"),
			ok(1, 1), ok(3, 1),
			claim(5, 1, "owned"), // back under the cap, LRU first
			check("sessions", 0, "[4 5]"),
			claim(4, 1, "wait"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := newDedupTable(tc.window, tc.maxSessions)
			waits := map[[2]uint64]<-chan struct{}{}
			for i, st := range tc.steps {
				at := fmt.Sprintf("step %d %s(%d, %d)", i, st.do, st.sid, st.seq)
				switch st.do {
				case "claim":
					cl := tab.claim(st.sid, st.seq)
					got := "owned"
					switch {
					case cl.tooOld:
						got = "tooOld"
					case cl.cached:
						got = "cached"
						if cl.resp.Val != int64(st.seq) {
							t.Fatalf("%s: cached Val %d, want the applied write's %d", at, cl.resp.Val, st.seq)
						}
					case cl.wait != nil:
						got = "wait"
						waits[[2]uint64{st.sid, st.seq}] = cl.wait
					case !cl.owned:
						got = "none"
					}
					if got != st.want {
						t.Fatalf("%s = %s, want %s", at, got, st.want)
					}
				case "ok":
					tab.complete(st.sid, st.seq, protocol.Response{Status: protocol.StatusOK, Val: int64(st.seq)})
				case "fail":
					tab.complete(st.sid, st.seq, protocol.Response{Status: protocol.StatusUnavailable})
				case "woken", "parked":
					ch := waits[[2]uint64{st.sid, st.seq}]
					if ch == nil {
						t.Fatalf("%s: no wait was returned", at)
					}
					woken := false
					select {
					case <-ch:
						woken = true
					default:
					}
					if woken != (st.do == "woken") {
						t.Fatalf("%s: woken = %v", at, woken)
					}
				case "sessions":
					var live []uint64
					for sid := uint64(1); sid <= 8; sid++ {
						if tab.sessions[sid] != nil {
							live = append(live, sid)
						}
					}
					if got := fmt.Sprint(live); got != st.want {
						t.Fatalf("%s = %s, want %s", at, got, st.want)
					}
				case "entries":
					if got := fmt.Sprint(len(tab.sessions[st.sid].entries)); got != st.want {
						t.Fatalf("%s = %s, want %s", at, got, st.want)
					}
				case "floor":
					if got := fmt.Sprint(tab.sessions[st.sid].floor); got != st.want {
						t.Fatalf("%s = %s, want %s", at, got, st.want)
					}
				default:
					t.Fatalf("%s: unknown step", at)
				}
			}
			for sid, s := range tab.sessions {
				pending := 0
				for _, e := range s.entries {
					if !e.ok {
						pending++
					}
				}
				if s.pendingN != pending {
					t.Fatalf("session %d: pendingN %d, %d unresolved entries", sid, s.pendingN, pending)
				}
			}
		})
	}
}

// BenchmarkDedupComplete times one claim plus one completion of a
// session that has filled its window, so every completion advances the
// floor by one. The cost must not grow with the window.
func BenchmarkDedupComplete(b *testing.B) {
	okResp := protocol.Response{Status: protocol.StatusOK}
	for _, window := range []int{64, 4096} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			tab := newDedupTable(window, 1)
			seq := uint64(0)
			for ; seq < uint64(2*window); seq++ {
				tab.claim(1, seq+1)
				tab.complete(1, seq+1, okResp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				tab.claim(1, seq)
				tab.complete(1, seq, okResp)
			}
		})
	}
}
