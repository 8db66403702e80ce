package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Frontier-admission waiting. The serving tier parks token-admission
// waits here instead of polling: each waiter registers the token it
// needs dominated, and the replica's apply path — which already holds
// n.mu and knows the frontier moved — wakes exactly the waiters whose
// predicate now holds. That shape matters under load: a broadcast wake
// would stampede every parked waiter through a dominance re-check (and
// the replica lock) on every write, while the predicate check costs the
// apply path one O(dim) comparison per parked waiter and wakes nobody
// spuriously. Liveness events (crash, restart, cluster close) do wake
// everyone: the waiters' next dominance check is against a different
// world and they must re-evaluate — or fail — on their own.
//
// The armed flag keeps the common case (no waiters) at a single atomic
// load on the apply hot path. fw.mu is a leaf lock, always taken inside
// n.mu on the wake path and without n.mu on the subscribe path.

// fwaiter is one parked admission wait.
type fwaiter struct {
	tok vclock.VC
	ch  chan struct{}
}

// frontierWaiters is a node's parked-waiter set.
type frontierWaiters struct {
	armed atomic.Bool
	mu    sync.Mutex
	set   map[*fwaiter]struct{}
}

// FrontierWait registers a waiter woken (channel closed) when this
// node's applied frontier first dominates tok, or on any liveness
// change (crash, restart, cluster close) — a wake-up is a hint to
// re-check, not a guarantee of admission. The returned cancel must be
// called when the caller stops waiting, or abandoned waiters accrete.
func (n *Node) FrontierWait(tok vclock.VC) (<-chan struct{}, func()) {
	w := &fwaiter{tok: tok, ch: make(chan struct{})}
	fw := &n.fw
	fw.mu.Lock()
	if fw.set == nil {
		fw.set = map[*fwaiter]struct{}{}
	}
	fw.set[w] = struct{}{}
	fw.armed.Store(true)
	fw.mu.Unlock()
	cancel := func() {
		fw.mu.Lock()
		delete(fw.set, w)
		if len(fw.set) == 0 {
			fw.armed.Store(false)
		}
		fw.mu.Unlock()
	}
	return w.ch, cancel
}

// wakeFrontierLocked wakes the waiters whose token the frontier now
// dominates. Caller holds n.mu; no-op (one atomic load) when nobody is
// parked.
func (n *Node) wakeFrontierLocked() {
	if !n.fw.armed.Load() {
		return
	}
	n.fw.mu.Lock()
	for w := range n.fw.set {
		if n.frontierDominatesLocked(w.tok) {
			close(w.ch)
			delete(n.fw.set, w)
		}
	}
	if len(n.fw.set) == 0 {
		n.fw.armed.Store(false)
	}
	n.fw.mu.Unlock()
}

// wakeAll wakes every parked waiter (liveness changed); they re-check
// and re-park on their own. Safe with or without n.mu held.
func (w *frontierWaiters) wakeAll() {
	if !w.armed.Load() {
		return
	}
	w.mu.Lock()
	for wt := range w.set {
		close(wt.ch)
		delete(w.set, wt)
	}
	w.armed.Store(false)
	w.mu.Unlock()
}

// frontierDominatesLocked is FrontierDominates for callers already
// holding n.mu.
func (n *Node) frontierDominatesLocked(t vclock.VC) bool {
	if len(t) == 0 {
		return true
	}
	if n.down.Load() || n.drv == nil {
		return false
	}
	r := n.drv.Replica()
	if fd, ok := r.(protocol.FrontierDominator); ok {
		return fd.FrontierDominates(t)
	}
	return r.(protocol.Introspector).ApplyClock().Dominates(t)
}
