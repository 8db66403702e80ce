package history

import (
	"errors"
	"fmt"
)

// History is a global history: one local history (ordered slice of
// operations) per process, plus the derived read-from relation. Build
// one with a Builder or FromOps; then call Causality to obtain the →co
// closure.
type History struct {
	// Locals[p] is the local history h_p in process order.
	Locals [][]Op
	// NumVars is the number of memory locations (max Var + 1).
	NumVars int

	// ops is the flattened operation list; flat[i] corresponds to
	// refs[i]. Flattening assigns each operation a dense global index
	// used by the causality engine.
	ops  []Op
	refs []OpRef
	// writeIdx maps a WriteID to its global index.
	writeIdx map[WriteID]int
}

// Errors reported while assembling or validating histories.
var (
	ErrUnknownWrite   = errors.New("history: read-from names an unknown write")
	ErrVarMismatch    = errors.New("history: read returns a value written to a different variable")
	ErrValMismatch    = errors.New("history: read returns a value different from its source write")
	ErrDuplicateWrite = errors.New("history: duplicate WriteID")
	ErrBadSeq         = errors.New("history: write Seq does not match process order")
)

// FromOps assembles a History from per-process operation slices. It
// validates the structural rules of the read-from relation of Section 2:
// every read's From either is ⊥ or names an existing write on the same
// variable with the same value, every After names an existing write,
// and each process's writes carry consecutive Seq numbers 1,2,3,…
func FromOps(locals [][]Op) (*History, error) {
	h := &History{
		Locals:   locals,
		writeIdx: make(map[WriteID]int),
	}
	for p, local := range locals {
		seq := 0
		for i, o := range local {
			if o.Proc != p {
				return nil, fmt.Errorf("history: op %v at p%d[%d] has Proc %d", o, p+1, i, o.Proc+1)
			}
			if o.Var+1 > h.NumVars {
				h.NumVars = o.Var + 1
			}
			idx := len(h.ops)
			h.ops = append(h.ops, o)
			h.refs = append(h.refs, OpRef{Proc: p, Index: i})
			if o.IsWrite() {
				seq++
				if o.ID.Proc != p || o.ID.Seq != seq {
					return nil, fmt.Errorf("%w: %v has ID %v, want w%d#%d", ErrBadSeq, o, o.ID, p+1, seq)
				}
				if _, dup := h.writeIdx[o.ID]; dup {
					return nil, fmt.Errorf("%w: %v", ErrDuplicateWrite, o.ID)
				}
				h.writeIdx[o.ID] = idx
			}
		}
	}
	for _, o := range h.ops {
		for _, a := range o.After {
			if _, ok := h.writeIdx[a]; !ok {
				return nil, fmt.Errorf("%w: %v after %v", ErrUnknownWrite, o, a)
			}
		}
		if !o.IsRead() || o.From.IsBottom() {
			continue
		}
		widx, ok := h.writeIdx[o.From]
		if !ok {
			return nil, fmt.Errorf("%w: %v from %v", ErrUnknownWrite, o, o.From)
		}
		w := h.ops[widx]
		if w.Var != o.Var {
			return nil, fmt.Errorf("%w: %v from %v", ErrVarMismatch, o, w)
		}
		if w.Val != o.Val {
			return nil, fmt.Errorf("%w: %v from %v", ErrValMismatch, o, w)
		}
	}
	return h, nil
}

// NumProcs returns the number of processes.
func (h *History) NumProcs() int { return len(h.Locals) }

// NumOps returns the total number of operations.
func (h *History) NumOps() int { return len(h.ops) }

// Ops returns the flattened operation list. Index i in this slice is the
// operation's global index, the currency of the Causality engine. The
// returned slice must not be modified.
func (h *History) Ops() []Op { return h.ops }

// Ref returns the (process, position) location of global operation i.
func (h *History) Ref(i int) OpRef { return h.refs[i] }

// GlobalIndex returns the dense index of the operation at ref.
func (h *History) GlobalIndex(ref OpRef) int {
	// Locals are flattened process by process in order.
	idx := 0
	for p := 0; p < ref.Proc; p++ {
		idx += len(h.Locals[p])
	}
	return idx + ref.Index
}

// WriteIndex returns the global index of the write named id, or -1 if
// the history contains no such write (including Bottom).
func (h *History) WriteIndex(id WriteID) int {
	if idx, ok := h.writeIdx[id]; ok {
		return idx
	}
	return -1
}

// Writes returns the global indices of all write operations, in
// flattened order.
func (h *History) Writes() []int {
	var ws []int
	for i, o := range h.ops {
		if o.IsWrite() {
			ws = append(ws, i)
		}
	}
	return ws
}

// Builder assembles a History incrementally, assigning WriteIDs and,
// when values are globally unique per variable, inferring the read-from
// relation (the convention of the paper's hand-written histories, where
// r(x)v reads from the unique w(x)v).
type Builder struct {
	locals   [][]Op
	writeSeq []int
	// valWriter[var][val] is the ID of the write that wrote val to var,
	// or ambiguous when more than one did.
	valWriter map[int]map[int64]WriteID
	err       error
}

// ambiguous marks a value written more than once to one variable: a
// read of it must name its source with ReadFrom.
var ambiguous = WriteID{Proc: -1}

// NewBuilder returns a Builder for n processes.
func NewBuilder(n int) *Builder {
	return &Builder{
		locals:    make([][]Op, n),
		writeSeq:  make([]int, n),
		valWriter: make(map[int]map[int64]WriteID),
	}
}

// Write appends w_{p}(x)v to p's local history and returns its ID.
func (b *Builder) Write(p, x int, v int64) WriteID {
	if b.err != nil {
		return Bottom
	}
	b.writeSeq[p]++
	id := WriteID{Proc: p, Seq: b.writeSeq[p]}
	b.locals[p] = append(b.locals[p], Op{Kind: Write, Proc: p, Var: x, Val: v, ID: id})
	m := b.valWriter[x]
	if m == nil {
		m = make(map[int64]WriteID)
		b.valWriter[x] = m
	}
	if _, dup := m[v]; dup {
		m[v] = ambiguous
	} else {
		m[v] = id
	}
	return id
}

// Read appends r_{p}(x)v, inferring the source write from the value. A
// read of a never-written value is recorded as reading ⊥ only when v is
// 0; any other unmatched value, and a value written more than once to
// x, is an error surfaced by Finish.
func (b *Builder) Read(p, x int, v int64) {
	if b.err != nil {
		return
	}
	from, ok := b.valWriter[x][v]
	if from == ambiguous {
		b.err = fmt.Errorf("history: value %d written twice to x%d; read-from inference needs unique values (use ReadFrom)", v, x+1)
		return
	}
	if !ok {
		if v != 0 {
			b.err = fmt.Errorf("history: r%d(x%d)%d reads a value never written", p+1, x+1, v)
			return
		}
		from = Bottom
	}
	b.ReadFrom(p, x, v, from)
}

// ReadFrom appends r_{p}(x)v with an explicit source write.
func (b *Builder) ReadFrom(p, x int, v int64, from WriteID) {
	if b.err != nil {
		return
	}
	b.locals[p] = append(b.locals[p], Op{Kind: Read, Proc: p, Var: x, Val: v, From: from})
}

// Finish validates and returns the assembled History.
func (b *Builder) Finish() (*History, error) {
	if b.err != nil {
		return nil, b.err
	}
	return FromOps(b.locals)
}

// MustFinish is Finish for tests and fixtures with known-good input.
func (b *Builder) MustFinish() *History {
	h, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return h
}

// String renders the history one local history per line, in the paper's
// "h1: w1(x1)1; w1(x1)3" style.
func (h *History) String() string {
	s := ""
	for p, local := range h.Locals {
		s += fmt.Sprintf("h%d:", p+1)
		for _, o := range local {
			s += " " + o.String() + ";"
		}
		s += "\n"
	}
	return s
}
