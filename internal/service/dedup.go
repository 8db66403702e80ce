package service

import (
	"sync"

	"repro/internal/protocol"
)

// Exactly-once write admission. A retried write (same session ID, same
// per-session op sequence) must apply once even when the first attempt
// is still in flight when the retry arrives — the connection died after
// the request reached the server, the write was issued, and the
// client replayed it on a fresh connection before the first
// attempt's response was computed. The table therefore works on claims,
// not just results: the first arrival of an (SID, OpSeq) claims the
// entry and executes; any later arrival waits for the claim to resolve
// and either returns the cached response (the write applied) or — when
// the first attempt failed without applying — claims the entry itself
// and executes for real.
//
// The window is bounded two ways: per session, completed entries below
// a sliding op-sequence floor are evicted (the floor trails the newest
// completed op by the configured window, which far exceeds the client's
// pipeline depth, so a live retry can never be below it); across
// sessions, an LRU cap evicts whole idle sessions.

// dedupEntry is one claimed (SID, OpSeq). ok reports whether resp is a
// cached applied write; until then the claim is unresolved, and done —
// made by the first arrival that has to wait — closes when it resolves.
type dedupEntry struct {
	done chan struct{}
	resp protocol.Response
	ok   bool
}

// resolve wakes the arrivals waiting on e, if any.
func (e *dedupEntry) resolve() {
	if e.done != nil {
		close(e.done)
	}
}

// sessionDedup is one session's window.
type sessionDedup struct {
	entries  map[uint64]*dedupEntry
	floor    uint64 // OpSeqs below this are evicted; retrying them is a protocol error
	stamp    uint64 // LRU clock value of the last touch
	pendingN int    // unresolved claims; a session with any is not evictable
}

// dedupTable is the server-wide dedup state.
type dedupTable struct {
	window      uint64
	maxSessions int

	mu       sync.Mutex
	clock    uint64
	sessions map[uint64]*sessionDedup
}

func newDedupTable(window, maxSessions int) *dedupTable {
	return &dedupTable{
		window:      uint64(window),
		maxSessions: maxSessions,
		sessions:    map[uint64]*sessionDedup{},
	}
}

// dedupClaim is the outcome of one claim attempt. Exactly one of the
// fields is meaningful: tooOld, cached (with resp), wait, or owned
// (with entry).
type dedupClaim struct {
	tooOld bool
	cached bool
	resp   protocol.Response
	wait   <-chan struct{} // resolve in flight: wait, then claim again
	owned  bool            // caller executes and must call complete
}

// claim resolves one arrival of (sid, opSeq); see dedupClaim.
func (t *dedupTable) claim(sid, opSeq uint64) dedupClaim {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sessions[sid]
	if s == nil {
		t.evictLocked()
		s = &sessionDedup{entries: map[uint64]*dedupEntry{}}
		t.sessions[sid] = s
	}
	t.clock++
	s.stamp = t.clock
	if opSeq < s.floor {
		return dedupClaim{tooOld: true}
	}
	if e := s.entries[opSeq]; e != nil {
		if e.ok {
			return dedupClaim{cached: true, resp: e.resp}
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		return dedupClaim{wait: e.done}
	}
	s.entries[opSeq] = &dedupEntry{}
	s.pendingN++
	return dedupClaim{owned: true}
}

// complete resolves an owned claim. An applied write (StatusOK) is
// cached for the window; anything else releases the claim so a retry
// can execute for real — the write did not reach the store.
func (t *dedupTable) complete(sid, opSeq uint64, resp protocol.Response) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sessions[sid]
	if s == nil {
		return // session evicted while we executed; nothing to cache
	}
	e := s.entries[opSeq]
	if e == nil {
		return
	}
	s.pendingN--
	if resp.Status == protocol.StatusOK {
		e.resp, e.ok = resp, true
		if opSeq >= t.window && opSeq-t.window+1 > s.floor {
			s.raiseFloor(opSeq - t.window + 1)
		}
	} else {
		delete(s.entries, opSeq)
	}
	e.resolve()
}

// raiseFloor evicts every entry below floor. claim refuses op sequences
// below the old floor, so the evicted keys are exactly s.floor …
// floor-1; walking them, or the map when the jump is larger, costs
// O(min(advance, entries)). An unresolved claim evicted here resolves:
// its waiters retry into tooOld and its owner's complete finds nothing.
func (s *sessionDedup) raiseFloor(floor uint64) {
	evict := func(seq uint64) {
		if e := s.entries[seq]; e != nil && !e.ok {
			s.pendingN--
			e.resolve()
		}
		delete(s.entries, seq)
	}
	if floor-s.floor <= uint64(len(s.entries)) {
		for seq := s.floor; seq < floor; seq++ {
			evict(seq)
		}
	} else {
		for seq := range s.entries {
			if seq < floor {
				evict(seq)
			}
		}
	}
	s.floor = floor
}

// evictLocked makes room for one more session, dropping the
// least-recently-touched. A session with an unresolved claim is never
// evicted — dropping it would strand retries waiting on its done
// channels — so the table can transiently exceed the cap while claims
// resolve (each is bounded by the server's WaitTimeout). Caller holds
// t.mu.
func (t *dedupTable) evictLocked() {
	for len(t.sessions) >= t.maxSessions {
		victim, found := uint64(0), false
		oldest := uint64(1<<64 - 1)
		for sid, s := range t.sessions {
			if s.pendingN == 0 && s.stamp <= oldest {
				victim, oldest, found = sid, s.stamp, true
			}
		}
		if !found {
			return
		}
		delete(t.sessions, victim)
	}
}
