package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/varint"
)

// Wire format: uvarint dimension, then each component as uvarint.
// Delta format: uvarint count of non-zero-delta components, then
// (uvarint index, uvarint delta) pairs relative to a base clock.
//
// The codec exists so the live transport can ship Write_co vectors and
// the trace exporter can serialize runs; it uses no reflection and
// allocates only the destination slice.

var (
	// ErrTruncated reports a buffer that ends inside an encoded clock.
	ErrTruncated = errors.New("vclock: truncated encoding")
	// ErrDimension reports a malformed clock encoding: a dimension, count
	// or index out of range, or a varint overflowing 64 bits.
	ErrDimension = errors.New("vclock: dimension mismatch")
)

// MaxDecodeDim is the hard ceiling on the dimension any clock decoder
// accepts. The count rule of varint.Reader bounds the allocation a
// *truncated* frame can force, but a hostile frame can be long: a few KB of input could otherwise declare a multi-thousand-
// component clock and make every decode allocate it. No configuration
// in this system approaches 64Ki processes, so the cap costs nothing
// legitimate.
const MaxDecodeDim = 1 << 16

// AppendBinary appends the wire encoding of v to dst and returns the
// extended slice.
func (v VC) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler. The destination
// is sized from the actual uvarint widths (EncodedSize), so the append
// never regrows — exactly one allocation regardless of component
// magnitude. (The old 1+2*len(v) hint under-allocated as soon as
// components crossed two varint bytes.)
func (v VC) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, v.EncodedSize())), nil
}

// DecodeVC decodes one clock from the front of buf, returning the clock
// and the number of bytes consumed.
func DecodeVC(buf []byte) (VC, int, error) {
	r := newReader(buf)
	v := ReadVC(&r)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return v, r.Off(), nil
}

// ReadVC reads one clock in the wire encoding from r. The dimension is a
// count under MaxDecodeDim, and the components are read in one
// Uvarints call.
func ReadVC(r *varint.Reader) VC {
	n := r.Count(MaxDecodeDim)
	if r.Err() != nil {
		return nil
	}
	v := make(VC, n)
	r.Uvarints(v)
	if r.Err() != nil {
		return nil
	}
	return v
}

// newReader reads a clock encoding, failing with ErrTruncated when the
// bytes run out and with ErrDimension when they are malformed.
func newReader(buf []byte) varint.Reader {
	return varint.NewReader(buf, ErrTruncated, ErrDimension)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *VC) UnmarshalBinary(data []byte) error {
	d, n, err := DecodeVC(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("vclock: %d trailing bytes", len(data)-n)
	}
	*v = d
	return nil
}

// AppendDelta appends a delta encoding of v relative to base. Both
// clocks must have the same dimension and base must be ≤ v component-wise
// (the common case on a FIFO link where clocks only grow); AppendDelta
// panics otherwise, because emitting a wrong delta would silently corrupt
// the receiver's clock.
func (v VC) AppendDelta(dst []byte, base VC) []byte {
	if len(v) != len(base) {
		panic(fmt.Sprintf("vclock: delta dimension mismatch %d != %d", len(v), len(base)))
	}
	nz := 0
	for i, x := range v {
		if x < base[i] {
			panic(fmt.Sprintf("vclock: delta base component %d exceeds value (%d > %d)", i, base[i], x))
		}
		if x != base[i] {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nz))
	for i, x := range v {
		if d := x - base[i]; d != 0 {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, d)
		}
	}
	return dst
}

// ReadDelta reads an AppendDelta encoding from r and applies it on top
// of base, returning the reconstructed clock. Its pair count is a count
// under base's dimension.
func ReadDelta(r *varint.Reader, base VC) VC {
	nz := r.Count(len(base))
	if r.Err() != nil {
		return nil
	}
	v := base.Clone()
	for ; nz > 0; nz-- {
		idx, d := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if idx >= uint64(len(v)) {
			r.Fail(fmt.Errorf("%w: delta index %d ≥ dimension %d", ErrDimension, idx, len(v)))
			return nil
		}
		if v[idx]+d < d {
			r.Fail(fmt.Errorf("%w: delta overflows component %d", ErrDimension, idx))
			return nil
		}
		v[idx] += d
	}
	return v
}

// AppendStab appends the stabilization encoding of v: uvarint
// dimension, a scalar floor (the minimum component — the clock's own
// stable frontier, in the sense of Okapi's stabilization scalar), then
// only the components strictly above the floor as (uvarint index,
// uvarint value−floor) residual pairs. The encoding is stateless and
// lossless — the floor stands in for every fully-stable component, and
// the residuals reconstruct the rest exactly — so unlike a true
// pruned-prefix scheme it needs no cluster-wide stability agreement to
// be safe. It wins when most components sit at a common frontier with
// a few leaders, the steady-state shape of a Write_co vector under
// all-to-all traffic.
func AppendStab(dst []byte, v VC) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	if len(v) == 0 {
		return dst
	}
	floor := v[0]
	for _, x := range v[1:] {
		if x < floor {
			floor = x
		}
	}
	nz := 0
	for _, x := range v {
		if x > floor {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, floor)
	dst = binary.AppendUvarint(dst, uint64(nz))
	for i, x := range v {
		if x > floor {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, x-floor)
		}
	}
	return dst
}

// StabSize returns the exact byte size AppendStab would emit for v.
func StabSize(v VC) int {
	n := uvarintLen(uint64(len(v)))
	if len(v) == 0 {
		return n
	}
	floor := v[0]
	for _, x := range v[1:] {
		if x < floor {
			floor = x
		}
	}
	nz := 0
	for i, x := range v {
		if x > floor {
			nz++
			n += uvarintLen(uint64(i)) + uvarintLen(x-floor)
		}
	}
	return n + uvarintLen(floor) + uvarintLen(uint64(nz))
}

// ReadStab reads one AppendStab clock from r. The dimension is capped
// by MaxDecodeDim alone — a stab clock may be far wider than its bytes —
// and the residual count is a count under the dimension.
func ReadStab(r *varint.Reader) VC {
	n := r.Uvarint()
	if n > MaxDecodeDim {
		r.Fail(fmt.Errorf("%w: dimension %d exceeds cap %d", ErrDimension, n, MaxDecodeDim))
	}
	if r.Err() != nil {
		return nil
	}
	if n == 0 {
		return VC{}
	}
	floor := r.Uvarint()
	nz := r.Count(int(n))
	if r.Err() != nil {
		return nil
	}
	v := make(VC, n)
	for i := range v {
		v[i] = floor
	}
	for ; nz > 0; nz-- {
		idx, res := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if idx >= n {
			r.Fail(fmt.Errorf("%w: residual index %d ≥ dimension %d", ErrDimension, idx, n))
			return nil
		}
		v[idx] = floor + res
	}
	return v
}

// EncodedSize returns the exact wire size of v without allocating.
func (v VC) EncodedSize() int {
	n := uvarintLen(uint64(len(v)))
	for _, x := range v {
		n += uvarintLen(x)
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
