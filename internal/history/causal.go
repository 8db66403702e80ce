package history

import (
	"errors"
	"fmt"

	"repro/internal/vclock"
)

// ErrCyclic reports a history whose →co relation is not a partial order
// (a cycle through process-order and read-from edges). Such a history
// can be written down but cannot be produced by any protocol in 𝒫.
var ErrCyclic = errors.New("history: →co contains a cycle")

// CausalOrder is the query interface over a computed →co relation,
// implemented by both the vector-frontier Causality engine (the default)
// and the dense-bitset DenseCausality reference. The checker stores one
// of these in its Report so audits can run against either.
type CausalOrder interface {
	History() *History
	Before(i, j int) bool
	Concurrent(i, j int) bool
	CausalPast(i int) []int
	CausalPastSize(i int) int
	WritesBefore(i int) []WriteID
	WriteBefore(w, w2 WriteID) bool
	WriteConcurrent(w, w2 WriteID) bool
	Topo() []int
	WriteGraph() *WriteGraph
	LegalRead(i int) (bool, Violation)
	CheckCausallyConsistent() []Violation
	IsCausallyConsistent() bool
}

// Causality is the computed →co relation of a History: the transitive
// closure of process order ∪ read-from, per Section 2 (∪ the After
// edges of merged pasts).
//
// Rather than materializing the closure as per-op bitsets (O(n²/64)
// memory — see DenseCausality for that small-trace reference), it stores
// two vector timestamps per operation, recomputed from the observed
// history in one topological pass and never trusting protocol clocks:
//
//	opvec[i][p] = number of operations of process p in ↓(i, →co) ∪ {i}
//	wvec[i][p]  = number of writes of process p in ↓(i, →co) ∪ {i}
//
// wvec is exactly the paper's Write_co vector (Definition 6): causal
// pasts are prefix-closed per process, so counting is naming, and by
// Theorems 1–2 the vectors characterize →co. Every precedence query
// becomes an O(1) component comparison:
//
//	ops[i] →co ops[j]  ⇔  i ≠ j ∧ opvec[j][proc(i)] > localIndex(i)
//
// Total metadata is O(n·P) — two flat uint64 slabs — so a million-op
// four-process trace costs ~64 MB where the dense closure would need
// hundreds of gigabytes.
type Causality struct {
	h  *History
	n  int // operations
	np int // processes

	// opvec and wvec are n×np row-major slabs; row i is the operation/
	// write count vector of global op i, exposed as a vclock.VC view.
	opvec []uint64
	wvec  []uint64
	// topo is a topological order of the direct-edge DAG.
	topo []int
	// base[p] is the global index of p's first operation (process-major
	// flattening means p's local index k lives at global base[p]+k).
	base []int
	// writesBy[p][s-1] is the global index of write (p, s).
	writesBy [][]int
	// varWrites[p][x] lists the Seqs of p's writes to variable x,
	// ascending — the legality checker's per-variable index.
	varWrites [][][]int
}

// directEdges invokes fn(from, to) for every generator edge of →co:
// consecutive process-order pairs, read-from pairs and After pairs.
func (h *History) directEdges(fn func(from, to int)) {
	base := 0
	for _, local := range h.Locals {
		for i := 1; i < len(local); i++ {
			fn(base+i-1, base+i)
		}
		base += len(local)
	}
	for i, o := range h.ops {
		if o.IsRead() && !o.From.IsBottom() {
			fn(h.writeIdx[o.From], i)
		}
		for _, a := range o.After {
			fn(h.writeIdx[a], i)
		}
	}
}

// Causality computes the →co vector representation. It returns ErrCyclic
// if the history's generator edges contain a cycle.
func (h *History) Causality() (*Causality, error) {
	n := len(h.ops)
	np := len(h.Locals)
	c := &Causality{h: h, n: n, np: np}

	c.base = make([]int, np)
	for p := 1; p < np; p++ {
		c.base[p] = c.base[p-1] + len(h.Locals[p-1])
	}

	// CSR adjacency of the generator DAG: an op's direct predecessors
	// are its previous local op, its read-from source and its rare After
	// writes, so two O(n) passes beat per-node append slices at the
	// million-op scale.
	indeg := make([]int, n)
	outdeg := make([]int, n)
	h.directEdges(func(from, to int) {
		outdeg[from]++
		indeg[to]++
	})
	start := make([]int, n+1)
	for i := 0; i < n; i++ {
		start[i+1] = start[i] + outdeg[i]
	}
	adj := make([]int, start[n])
	fill := make([]int, n)
	copy(fill, start[:n])
	h.directEdges(func(from, to int) {
		adj[fill[from]] = to
		fill[from]++
	})

	// Kahn topological sort, detecting cycles.
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	c.topo = make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		c.topo = append(c.topo, v)
		for _, w := range adj[start[v]:start[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(c.topo) != n {
		return nil, fmt.Errorf("%w: %d of %d operations unreachable in topological sort", ErrCyclic, n-len(c.topo), n)
	}

	// One pass in topological order computes both vectors: an op inherits
	// its previous local op's vectors (global index i−1 under process-
	// major flattening), merges its read-from source's and its After
	// writes', then ticks its own process component — to localIndex+1
	// for opvec, and to its Seq for wvec when it is a write (the
	// inclusive Write_co convention of the paper: a write counts itself
	// on the issuing component).
	c.opvec = make([]uint64, n*np)
	c.wvec = make([]uint64, n*np)
	for _, v := range c.topo {
		ref := h.refs[v]
		ov := c.opvec[v*np : (v+1)*np]
		wv := c.wvec[v*np : (v+1)*np]
		if ref.Index > 0 {
			copy(ov, c.opvec[(v-1)*np:v*np])
			copy(wv, c.wvec[(v-1)*np:v*np])
		}
		o := h.ops[v]
		if o.IsRead() && !o.From.IsBottom() {
			s := h.writeIdx[o.From]
			vclock.VC(ov).Merge(c.opvec[s*np : (s+1)*np])
			vclock.VC(wv).Merge(c.wvec[s*np : (s+1)*np])
		}
		for _, a := range o.After {
			s := h.writeIdx[a]
			vclock.VC(ov).Merge(c.opvec[s*np : (s+1)*np])
			vclock.VC(wv).Merge(c.wvec[s*np : (s+1)*np])
		}
		ov[ref.Proc] = uint64(ref.Index) + 1
		if o.IsWrite() {
			wv[ref.Proc] = uint64(o.ID.Seq)
		}
	}

	// Per-process write indices for WriteGraph and legality.
	c.writesBy = make([][]int, np)
	c.varWrites = make([][][]int, np)
	for p := range c.varWrites {
		c.varWrites[p] = make([][]int, h.NumVars)
	}
	for i, o := range h.ops {
		if o.IsWrite() {
			p := o.ID.Proc
			c.writesBy[p] = append(c.writesBy[p], i)
			c.varWrites[p][o.Var] = append(c.varWrites[p][o.Var], o.ID.Seq)
		}
	}
	return c, nil
}

// History returns the underlying history.
func (c *Causality) History() *History { return c.h }

// Before reports ops[i] →co ops[j] in O(1): i precedes j iff j's causal
// past contains at least localIndex(i)+1 operations of i's process.
func (c *Causality) Before(i, j int) bool {
	if i == j {
		return false
	}
	ref := c.h.refs[i]
	return c.opvec[j*c.np+ref.Proc] > uint64(ref.Index)
}

// Concurrent reports ops[i] ‖co ops[j] (distinct, neither before the other).
func (c *Causality) Concurrent(i, j int) bool {
	return i != j && !c.Before(i, j) && !c.Before(j, i)
}

// WriteVector returns the checker-side Write_co vector of ops[i]:
// component p counts p's writes in ↓(i, →co) ∪ {i}, so for a write the
// issuing component includes the write itself, matching Definition 6.
// The returned clock is a view into the engine's slab and must not be
// modified.
func (c *Causality) WriteVector(i int) vclock.VC {
	return vclock.VC(c.wvec[i*c.np : (i+1)*c.np])
}

// CausalPast returns ↓(ops[i], →co): the global indices of all
// operations strictly before ops[i], in increasing index order. The
// per-process prefix property makes this a direct enumeration: p
// contributes exactly its first opvec[i][p] operations.
func (c *Causality) CausalPast(i int) []int {
	var out []int
	row := c.opvec[i*c.np : (i+1)*c.np]
	for p := 0; p < c.np; p++ {
		for k := 0; k < int(row[p]); k++ {
			if gi := c.base[p] + k; gi != i {
				out = append(out, gi)
			}
		}
	}
	return out
}

// CausalPastSize returns |↓(ops[i], →co)| without materializing it.
func (c *Causality) CausalPastSize(i int) int {
	size := -1 // opvec counts i itself on its own component
	for _, x := range c.opvec[i*c.np : (i+1)*c.np] {
		size += int(x)
	}
	return size
}

// WritesBefore returns the write operations in ↓(ops[i], →co) as
// WriteIDs in increasing global-index order. Per Definition 4 this is
// exactly X_co-safe(apply_k(ops[i])) for every process k when ops[i] is
// a write.
func (c *Causality) WritesBefore(i int) []WriteID {
	var ids []WriteID
	row := c.wvec[i*c.np : (i+1)*c.np]
	self := c.h.ops[i]
	for p := 0; p < c.np; p++ {
		max := int(row[p])
		if self.IsWrite() && self.ID.Proc == p {
			max-- // wvec is inclusive of the write itself
		}
		for s := 1; s <= max; s++ {
			ids = append(ids, WriteID{Proc: p, Seq: s})
		}
	}
	return ids
}

// WriteBefore reports w →co w' for two writes given by ID. It panics if
// either ID is unknown; Bottom is before every operation by convention
// and after none.
func (c *Causality) WriteBefore(w, w2 WriteID) bool {
	if w.IsBottom() {
		return !w2.IsBottom()
	}
	if w2.IsBottom() {
		return false
	}
	i, j := c.mustWrite(w), c.mustWrite(w2)
	return c.Before(i, j)
}

// WriteConcurrent reports w ‖co w' for two distinct writes.
func (c *Causality) WriteConcurrent(w, w2 WriteID) bool {
	if w.IsBottom() || w2.IsBottom() {
		return false
	}
	return c.Concurrent(c.mustWrite(w), c.mustWrite(w2))
}

func (c *Causality) mustWrite(id WriteID) int {
	idx := c.h.WriteIndex(id)
	if idx < 0 {
		panic(fmt.Sprintf("history: unknown write %v", id))
	}
	return idx
}

// Topo returns a topological order of the operations consistent with →co.
func (c *Causality) Topo() []int {
	t := make([]int, len(c.topo))
	copy(t, c.topo)
	return t
}
