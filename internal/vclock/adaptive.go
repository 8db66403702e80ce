package vclock

import (
	"encoding/binary"
	"fmt"

	"repro/internal/varint"
)

// Density thresholds of the Adaptive representation switch. The gap
// between them is deliberate hysteresis: a clock oscillating around one
// threshold must cross the other before flipping back, so a borderline
// population cannot thrash between representations on every update.
const (
	// adaptiveDenseAt flips sparse → dense when more than this fraction
	// of components is nonzero.
	adaptiveDenseAt = 0.5
	// adaptiveSparseAt flips dense → sparse when fewer than this
	// fraction of components is nonzero.
	adaptiveSparseAt = 0.25
)

// Adaptive holds one clock in whichever representation its density
// warrants: sparse (sorted index/value pairs) while mostly zero, dense
// (plain VC) once populated — CausalMesh's plain→compressed flip, both
// directions. It is the memory form of per-link codec state: a link
// from an idle or newly started sender costs O(nnz), and only links
// that have genuinely seen wide causal pasts pay O(dim).
//
// The zero Adaptive is an empty clock of dimension 0; CopyFrom adopts
// whatever dimension the first real clock carries.
type Adaptive struct {
	sparse Sparse // authoritative when dense == nil
	dense  VC     // authoritative when non-nil
}

// NewAdaptive returns an all-zero adaptive clock of dimension n
// (starting sparse — a zero clock is as sparse as they come).
func NewAdaptive(n int) *Adaptive {
	a := &Adaptive{}
	a.sparse.dim = n
	return a
}

// Dim returns the clock's dimension.
func (a *Adaptive) Dim() int {
	if a.dense != nil {
		return len(a.dense)
	}
	return a.sparse.dim
}

// IsSparse reports which representation currently backs the clock.
func (a *Adaptive) IsSparse() bool { return a.dense == nil }

// Get returns component i (absent components are zero).
func (a *Adaptive) Get(i int) uint64 {
	if a.dense != nil {
		return a.dense.Get(i)
	}
	return a.sparse.Get(i)
}

// Set assigns component i, then re-checks density.
func (a *Adaptive) Set(i int, x uint64) {
	if a.dense != nil {
		a.dense.Set(i, x)
		a.rebalance(a.nnz())
		return
	}
	a.sparse.Set(i, x)
	a.rebalance(a.sparse.NNZ())
}

// Merge folds the dense o into the clock (component-wise max), then
// re-checks density.
func (a *Adaptive) Merge(o VC) {
	if a.dense != nil {
		a.dense.Merge(o)
		a.rebalance(a.nnz())
		return
	}
	a.sparse.Merge(o)
	a.rebalance(a.sparse.NNZ())
}

// Dominates reports o ≤ a component-wise.
func (a *Adaptive) Dominates(o VC) bool {
	if a.dense != nil {
		return a.dense.Dominates(o)
	}
	return a.sparse.Dominates(o)
}

// Equal reports whether a and the dense o agree on every component.
func (a *Adaptive) Equal(o VC) bool {
	if a.dense != nil {
		return a.dense.Equal(o)
	}
	return a.sparse.Equal(o)
}

// CopyFrom overwrites the clock with v, adopting v's dimension and
// picking the representation v's density warrants. It reuses existing
// backing storage where it can.
func (a *Adaptive) CopyFrom(v VC) {
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	if float64(nnz) > adaptiveDenseAt*float64(len(v)) {
		if len(a.dense) != len(v) {
			a.dense = New(len(v))
		}
		a.dense.CopyFrom(v)
		a.sparse.dim = len(v)
		return
	}
	a.dense = nil
	a.sparse.CopyFrom(v)
}

// Reset zeroes the clock and drops it to dimension 0 — the state of a
// codec link before its first message, and after a resync.
func (a *Adaptive) Reset() {
	a.dense = nil
	a.sparse.CopyFrom(nil)
}

// DenseInto materializes the clock into dst (which must have dimension
// Dim) and returns dst.
func (a *Adaptive) DenseInto(dst VC) VC {
	if a.dense != nil {
		dst.CopyFrom(a.dense)
		return dst
	}
	return a.sparse.DenseInto(dst)
}

// Dense returns a fresh dense copy of the clock.
func (a *Adaptive) Dense() VC { return a.DenseInto(New(a.Dim())) }

// Sum returns the sum of all components.
func (a *Adaptive) Sum() uint64 {
	if a.dense != nil {
		return a.dense.Sum()
	}
	return a.sparse.Sum()
}

// Checksum is a one-byte digest of the clock (component sum mod 256),
// cheap enough to ship per message; the delta codec uses it to detect
// an encoder/decoder base desync instead of silently reconstructing a
// wrong clock.
func (a *Adaptive) Checksum() byte { return byte(a.Sum()) }

// nnz counts nonzero components of the dense representation.
func (a *Adaptive) nnz() int {
	n := 0
	for _, x := range a.dense {
		if x != 0 {
			n++
		}
	}
	return n
}

// rebalance flips the representation when the population crosses a
// threshold (with hysteresis: the flip-to-dense and flip-to-sparse
// bounds differ).
func (a *Adaptive) rebalance(nnz int) {
	dim := a.Dim()
	if a.dense == nil {
		if float64(nnz) > adaptiveDenseAt*float64(dim) {
			a.dense = a.sparse.Dense()
		}
		return
	}
	if float64(nnz) < adaptiveSparseAt*float64(dim) {
		a.sparse.CopyFrom(a.dense)
		a.dense = nil
	}
}

// DeltaSignedSize returns the exact byte size AppendDeltaSigned would
// emit for v against the current base, without encoding. Dimensions
// must agree.
func (a *Adaptive) DeltaSignedSize(v VC) int {
	if len(v) != a.Dim() {
		panic(fmt.Sprintf("vclock: delta dimension mismatch %d != %d", len(v), a.Dim()))
	}
	nz, size := 0, 0
	a.diff(v, func(i int, d int64) {
		nz++
		size += uvarintLen(uint64(i)) + uvarintLen(zigzag(d))
	})
	return uvarintLen(uint64(nz)) + size
}

// AppendDeltaSigned appends the signed delta encoding of v against the
// current base: uvarint count, then (uvarint index, zigzag-varint
// delta) pairs for every component where v differs from the base.
// Signed deltas make the codec total — unlike AppendDelta it never
// requires the base to be dominated, which matters for clocks that are
// not monotone per link (WS-send's (visit, slot, size) keys). The base is
// NOT advanced; callers commit with CopyFrom once the encoding is
// chosen. Dimensions must agree.
func (a *Adaptive) AppendDeltaSigned(dst []byte, v VC) []byte {
	if len(v) != a.Dim() {
		panic(fmt.Sprintf("vclock: delta dimension mismatch %d != %d", len(v), a.Dim()))
	}
	nz := 0
	a.diff(v, func(int, int64) { nz++ })
	dst = binary.AppendUvarint(dst, uint64(nz))
	a.diff(v, func(i int, d int64) {
		dst = binary.AppendUvarint(dst, uint64(i))
		dst = binary.AppendVarint(dst, d)
	})
	return dst
}

// ReadDeltaSigned reads a signed delta produced against the current
// base from r, returning the reconstructed clock (a fresh dense VC).
// The base is NOT advanced; callers commit with CopyFrom. Its pair count
// is a count under the base's dimension.
func (a *Adaptive) ReadDeltaSigned(r *varint.Reader) VC {
	nz := r.Count(a.Dim())
	if r.Err() != nil {
		return nil
	}
	v := a.Dense()
	for ; nz > 0; nz-- {
		idx, d := r.Uvarint(), r.Varint()
		if r.Err() != nil {
			return nil
		}
		if idx >= uint64(len(v)) {
			r.Fail(fmt.Errorf("%w: delta index %d ≥ dimension %d", ErrDimension, idx, len(v)))
			return nil
		}
		nv := int64(v[idx]) + d
		if nv < 0 {
			r.Fail(fmt.Errorf("%w: delta underflows component %d", ErrDimension, idx))
			return nil
		}
		v[idx] = uint64(nv)
	}
	return v
}

// diff calls fn(i, v[i]-base[i]) for every component where v and the
// base differ, in index order, walking the sparse pairs with a cursor
// so the sparse case never materializes the base.
func (a *Adaptive) diff(v VC, fn func(i int, d int64)) {
	if a.dense != nil {
		for i, x := range v {
			if b := a.dense[i]; x != b {
				fn(i, int64(x)-int64(b))
			}
		}
		return
	}
	j := 0
	for i, x := range v {
		b := uint64(0)
		if j < len(a.sparse.ix) && int(a.sparse.ix[j]) == i {
			b = a.sparse.vx[j]
			j++
		}
		if x != b {
			fn(i, int64(x)-int64(b))
		}
	}
}

// zigzag maps a signed delta onto the unsigned varint space the same
// way encoding/binary does, for size accounting.
func zigzag(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}
