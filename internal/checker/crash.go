package checker

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/trace"
)

// CrashViolation reports a protocol-level event recorded at a process
// while it was crash-stopped — evidence that the crash model leaked: a
// down process must neither issue, propagate, receive, apply, discard
// nor read anything until its Recover event.
type CrashViolation struct {
	Proc  int
	Kind  trace.EventKind
	Write history.WriteID
}

// String implements fmt.Stringer.
func (v CrashViolation) String() string {
	return fmt.Sprintf("p%d recorded %v of %v while down", v.Proc+1, v.Kind, v.Write)
}

// CrashConsistent reports that the crash model held: no protocol
// activity at down processes, and no process recovered without having
// crashed.
func (r *Report) CrashConsistent() bool { return len(r.CrashViolations) == 0 }

// auditCrashes walks the trace maintaining the down-set and flags every
// protocol-level event attributed to a down process. Transport-level
// events (NetDrop, Retransmit, DupDiscard, Suspect, Alive) are exempt:
// the network keeps running while a process is down, and a duplicate
// frame can still die at a down receiver's dedup layer.
func (r *Report) auditCrashes(log *trace.Log) {
	down := make([]bool, log.NumProcs)
	for _, e := range log.Events {
		switch e.Kind {
		case trace.Crash:
			if down[e.Proc] {
				r.CrashViolations = append(r.CrashViolations, CrashViolation{Proc: e.Proc, Kind: e.Kind})
			}
			down[e.Proc] = true
			r.Crashes++
		case trace.Recover:
			if !down[e.Proc] {
				r.CrashViolations = append(r.CrashViolations, CrashViolation{Proc: e.Proc, Kind: e.Kind})
			}
			down[e.Proc] = false
			r.Recoveries++
		case trace.Issue, trace.Send, trace.Receipt, trace.Apply,
			trace.Discard, trace.Drop, trace.Return, trace.Token, trace.Merge:
			if down[e.Proc] {
				r.CrashViolations = append(r.CrashViolations, CrashViolation{
					Proc: e.Proc, Kind: e.Kind, Write: e.Write,
				})
			}
		}
	}
}
