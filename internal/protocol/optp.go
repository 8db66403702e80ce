package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// optp is the paper's OptP protocol (Section 4), a transliteration of
// Figures 4 and 5.
//
// Per-process state (Section 4.1):
//
//	Apply[1..n]       — Apply[j] = number of writes issued by p_j and
//	                    applied here.
//	Write_co[1..n]    — the process's current knowledge of →co;
//	                    Write_co[j] = k means the k-th write of p_j is in
//	                    the causal past of the *next* write this process
//	                    issues.
//	LastWriteOn[1..m] — LastWriteOn[h] is the Write_co vector of the last
//	                    write applied to x_h here.
//
// The crucial asymmetry against ANBKH: Write_co grows only through the
// process's own writes (line 1 of WRITE) and through *reads* (line 1 of
// READ merges LastWriteOn[h]); merely applying a remote update does NOT
// advance Write_co. Updates therefore carry exactly the →co past of the
// write — no false causality.
type optp struct {
	id int
	n  int

	apply   vclock.VC
	writeCo vclock.VC
	lastOn  []vclock.VC // per variable

	vals    []int64
	writers []history.WriteID

	// readMerge is false for the ablated variant: Write_co then absorbs
	// every applied update, degenerating to ANBKH's behaviour.
	readMerge bool
}

// NewOptP returns an OptP replica for process p of n over m variables.
func NewOptP(p, n, m int) Replica {
	return newOptP(p, n, m, true)
}

// NewOptPAblated returns the read-merge ablation: identical code paths,
// but Write_co is merged on every Apply instead of on Read. It remains
// safe but loses write-delay optimality (experiment E8).
func NewOptPAblated(p, n, m int) Replica {
	return newOptP(p, n, m, false)
}

func newOptP(p, n, m int, readMerge bool) *optp {
	r := &optp{
		id:        p,
		n:         n,
		apply:     vclock.New(n),
		writeCo:   vclock.New(n),
		lastOn:    make([]vclock.VC, m),
		vals:      make([]int64, m),
		writers:   make([]history.WriteID, m),
		readMerge: readMerge,
	}
	for i := range r.lastOn {
		r.lastOn[i] = vclock.New(n)
	}
	return r
}

func (r *optp) ProcID() int { return r.id }

func (r *optp) Kind() Kind {
	if r.readMerge {
		return OptP
	}
	return OptPNoReadMerge
}

// LocalWrite is the WRITE(x_h, v) procedure of Figure 4:
//
//	1  Write_co[i] := Write_co[i] + 1        (tracks →po_i)
//	2  send [m(x_h, v, Write_co)] to Π − p_i (send event)
//	3  apply(v, x_h)                          (apply event)
//	4  Apply[i] := Apply[i] + 1
//	5  LastWriteOn[h] := Write_co
func (r *optp) LocalWrite(x int, v int64) (Update, bool) {
	r.writeCo.Tick(r.id)
	u := Update{
		ID:    history.WriteID{Proc: r.id, Seq: int(r.writeCo.Get(r.id))},
		Var:   x,
		Val:   v,
		Clock: r.writeCo.Clone(),
	}
	r.vals[x] = v
	r.writers[x] = u.ID
	r.apply.Tick(r.id)
	r.lastOn[x].CopyFrom(r.writeCo)
	return u, true
}

// Read is the READ(x_h) procedure of Figure 5:
//
//	1  Write_co := max(Write_co, LastWriteOn[h])
//	2  return x_h
func (r *optp) Read(x int) (int64, history.WriteID) {
	if r.readMerge {
		r.writeCo.Merge(r.lastOn[x])
	}
	return r.vals[x], r.writers[x]
}

// MergePast implements PastMerger. (The ablated variant's Write_co
// already dominates its Apply vector, so nothing is raised there.)
func (r *optp) MergePast(t vclock.VC) []history.WriteID {
	var raised []history.WriteID
	for j, k := range t {
		if k > r.writeCo.Get(j) {
			r.writeCo.Set(j, k)
			raised = append(raised, history.WriteID{Proc: j, Seq: int(k)})
		}
	}
	return raised
}

// Status evaluates the wait condition of the synchronization thread
// (line 2 of Figure 5): the update m(x_h, v, W_co) from p_u is
// deliverable iff
//
//	∀t ≠ u: W_co[t] ≤ Apply[t]   ∧   Apply[u] = W_co[u] − 1
//
// i.e. the only causal information in the message unknown here is the
// write itself.
func (r *optp) Status(u Update) Deliverability {
	from := u.From()
	for t := 0; t < r.n; t++ {
		if t == from {
			continue
		}
		if u.Clock.Get(t) > r.apply.Get(t) {
			return Blocked
		}
	}
	if r.apply.Get(from) != u.Clock.Get(from)-1 {
		return Blocked
	}
	return Deliverable
}

// Apply is the body of the synchronization thread once the wait
// condition holds (lines 3–5 of Figure 5):
//
//	3  apply(v, x_h)
//	4  Apply[u] := Apply[u] + 1
//	5  LastWriteOn[h] := W_co
//
// The ablated variant additionally merges the update clock into
// Write_co, manufacturing the false-causality dependencies that ANBKH
// suffers.
func (r *optp) Apply(u Update) {
	if s := r.Status(u); s != Deliverable {
		panic(fmt.Sprintf("optp: Apply of %v while %v (apply=%v)", u, s, r.apply))
	}
	r.vals[u.Var] = u.Val
	r.writers[u.Var] = u.ID
	r.apply.Tick(u.From())
	// In-place copy: lastOn's backing array is reused for the life of
	// the replica (nothing aliases it — every accessor clones).
	r.lastOn[u.Var].CopyFrom(u.Clock)
	if !r.readMerge {
		r.writeCo.Merge(u.Clock)
	}
}

// ControlClock implements Introspector.
func (r *optp) ControlClock() vclock.VC { return r.writeCo.Clone() }

// ApplyClock implements Introspector.
func (r *optp) ApplyClock() vclock.VC { return r.apply.Clone() }

// Value implements Introspector.
func (r *optp) Value(x int) (int64, history.WriteID) { return r.vals[x], r.writers[x] }

// LastWriteOn returns a copy of the per-variable vector, exposed for
// the Figure 6 renderer.
func (r *optp) LastWriteOn(x int) vclock.VC { return r.lastOn[x].Clone() }
