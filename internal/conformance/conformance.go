// Package conformance is the conformance suite of the serving tier: it
// drives real client connections against a real dsmd-style server
// (internal/service over a core.Cluster), records what each tracked
// session saw, and audits that record as a history of the paper's
// model with one process per session.
//
// Every successful write enters the history with the write its response
// names, and every successful read with the write it returned (From).
// Audit then decides Definition 2 with the repo's own checker
// (history.Causality): every read must be legal under →co, where →co is
// built from session order and read-from. Causal consistency with
// sessions as processes implies all four of Terry et al.'s session
// guarantees — read-your-writes, monotonic reads, monotonic writes and
// writes-follow-reads — on any workload, shared variables included.
//
// The suite must also catch the absence of the mechanism: a session in
// no-token mode (client.NoTokenSession) carries no causal past, and on a
// cluster with real propagation delay Audit is expected to report
// violations for it. A conformance suite that cannot detect the
// deliberately-broken mode proves nothing about the working one.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/service"
)

// Errors Audit reports for a record it cannot turn into a history.
var (
	// ErrUnrecordedWrite: a read returned a write that no recorded
	// operation issued (say, a write whose call failed).
	ErrUnrecordedWrite = errors.New("conformance: read of a write no recorded operation issued")
	// ErrDuplicateWrite: two recorded writes name one served write, so
	// one write completed twice.
	ErrDuplicateWrite = errors.New("conformance: two writes name one served write")
)

// Audit decides whether the recorded sessions form a causally consistent
// history with session p as process p. sessions[p] holds session p's
// successful operations in issue order; a write's ID and a read's From
// are the served write IDs the responses named, and Audit renames them
// to session-side ones (the k-th write of session p is w_p#k). It
// returns the illegal reads, none when the history is causally
// consistent.
func Audit(sessions [][]history.Op) ([]history.Violation, error) {
	local := map[history.WriteID]history.WriteID{}
	for p, ops := range sessions {
		seq := 0
		for _, o := range ops {
			if !o.IsWrite() {
				continue
			}
			if _, dup := local[o.ID]; dup {
				return nil, fmt.Errorf("%w: %v (session %d)", ErrDuplicateWrite, o.ID, p)
			}
			seq++
			local[o.ID] = history.WriteID{Proc: p, Seq: seq}
		}
	}
	locals := make([][]history.Op, len(sessions))
	for p, ops := range sessions {
		for _, o := range ops {
			o.Proc = p
			if o.IsWrite() {
				o.ID = local[o.ID]
			} else if !o.From.IsBottom() {
				from, ok := local[o.From]
				if !ok {
					return nil, fmt.Errorf("%w: session %d read x%d=%d from %v", ErrUnrecordedWrite, p, o.Var, o.Val, o.From)
				}
				o.From = from
			}
			locals[p] = append(locals[p], o)
		}
	}
	h, err := history.FromOps(locals)
	if err != nil {
		return nil, err
	}
	c, err := h.Causality()
	if err != nil {
		return nil, err
	}
	return c.CheckCausallyConsistent(), nil
}

// Harness runs one cluster + server and records every tracked session's
// successful operations for Audit.
type Harness struct {
	T       *testing.T
	Cluster *core.Cluster
	Server  *service.Server

	mu       sync.Mutex
	names    []string       // names[p] is tracked session p's name
	sessions [][]history.Op // sessions[p] is its record, in issue order
}

// New builds a cluster and a server over it; teardown is wired into t.
func New(t *testing.T, ccfg core.Config, scfg service.Config) *Harness {
	t.Helper()
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("conformance: NewCluster: %v", err)
	}
	scfg.Cluster = cl
	srv, err := service.New(scfg)
	if err != nil {
		cl.Close()
		t.Fatalf("conformance: service.New: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Close()
	})
	return &Harness{T: t, Cluster: cl, Server: srv}
}

// Dial opens a client connection to the harness server.
func (h *Harness) Dial() *client.Client {
	h.T.Helper()
	c, err := client.Dial(h.Server.Addr())
	if err != nil {
		h.T.Fatalf("conformance: Dial: %v", err)
	}
	h.T.Cleanup(func() { c.Close() })
	return c
}

// Sessions snapshots the record for Audit: one slice per tracked
// session, in Track order, so a violation's Op.Proc indexes Track calls.
func (h *Harness) Sessions() [][]history.Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([][]history.Op, len(h.sessions))
	for p, ops := range h.sessions {
		out[p] = append([]history.Op(nil), ops...)
	}
	return out
}

// Track wraps a session so its operations land in the harness record as
// one process. The session is a process, so its calls must not overlap:
// issue order is the order in which they return.
func (h *Harness) Track(name string, s *client.Session) *TrackedSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.names = append(h.names, name)
	h.sessions = append(h.sessions, nil)
	return &TrackedSession{h: h, p: len(h.sessions) - 1, s: s}
}

// TrackedSession records a session's successful operations for Audit.
// Methods mirror client.Session.
type TrackedSession struct {
	h *Harness
	p int
	s *client.Session
}

// Use pins the underlying session to replica p.
func (ts *TrackedSession) Use(p int) *TrackedSession {
	ts.s.Use(p)
	return ts
}

// Session exposes the wrapped session (for Token/Resume).
func (ts *TrackedSession) Session() *client.Session { return ts.s }

// record appends one successful operation to the session's record.
func (ts *TrackedSession) record(o history.Op) {
	ts.h.mu.Lock()
	ts.h.sessions[ts.p] = append(ts.h.sessions[ts.p], o)
	ts.h.mu.Unlock()
}

// Write records a tracked write with the write its response named.
func (ts *TrackedSession) Write(ctx context.Context, x int, v int64) error {
	id, err := ts.s.WriteMeta(ctx, x, v)
	if err == nil {
		ts.record(history.Op{Kind: history.Write, Var: x, Val: v, ID: id})
	}
	return err
}

// Read records a tracked read with the write it returned.
func (ts *TrackedSession) Read(ctx context.Context, x int) (int64, error) {
	v, from, err := ts.s.ReadMeta(ctx, x)
	if err == nil {
		ts.record(history.Op{Kind: history.Read, Var: x, Val: v, From: from})
	}
	return v, err
}
