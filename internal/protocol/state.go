package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// Crash-recovery state codec. The replicas the live runtime can recover
// — OptP and its read-merge ablation, ANBKH, PartialRep — export their
// complete control and data state as a self-delimiting byte string and
// restore it into a freshly constructed replica of the same kind and
// shape. The writing-semantics replicas run only in the simulator and
// have no codec of their own (OptP-WS inherits OptP's through
// embedding, which leaves out its skip set). The format follows the
// update codec's varint idiom:
//
//	kind               — uvarint, must match the restoring replica
//	n                  — uvarint process count (shape check)
//	<kind-specific>    — vectors via the vclock codec, memory as
//	                     (val, writer) pairs
//
// Determinism matters: the durability layer compares re-encoded
// snapshots in tests, and export → restore → export is a byte-identical
// round trip.

// ErrStateCorrupt reports a state encoding that is truncated, of the
// wrong kind, or shaped for a different cluster.
var ErrStateCorrupt = errors.New("protocol: corrupt replica state")

// StateCodec is full protocol-state export/import for crash recovery.
type StateCodec interface {
	// AppendState appends the replica's complete state encoding to dst.
	AppendState(dst []byte) []byte
	// RestoreState overwrites the replica's state with a previously
	// exported encoding of the same kind and shape, returning the number
	// of bytes consumed.
	RestoreState(data []byte) (int, error)
}

// Resumer is implemented by the replicas with a StateCodec: it drives
// catch-up after a restart. Lacks reports whether process p, whose Apply
// vector (Introspector.ApplyClock) is v, still needs write u: u is
// addressed to p and p has not applied it. A nil v is this replica's own
// vector, read in place (the self case: the stale-duplicate test). Along
// one origin's writes in issue order, those addressed to p that p lacks
// form a suffix.
type Resumer interface {
	Lacks(p int, v vclock.VC, u Update) bool
}

// ReadMutatesState reports, for the kinds with a StateCodec, whether
// Read changes control state — OptP's read-merge folds LastWriteOn into
// Write_co, and PartialRep's folds LastOn (or a forwarded reply) into
// its edge matrix — and hence whether reads must be journaled for
// crash recovery to reconstruct the exact →co knowledge.
func (k Kind) ReadMutatesState() bool { return k == OptP || k == PartialRep }

// ExportState is a convenience wrapper asserting the StateCodec
// interface on r.
func ExportState(r Replica) []byte {
	return r.(StateCodec).AppendState(nil)
}

// ---------------------------------------------------------------------
// encode helpers

func appendWriteID(dst []byte, id history.WriteID) []byte {
	dst = binary.AppendVarint(dst, int64(id.Proc))
	return binary.AppendVarint(dst, int64(id.Seq))
}

// appendMem encodes the variable store as a length-prefixed sequence of
// (value, writer) pairs.
func appendMem(dst []byte, vals []int64, writers []history.WriteID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for i := range vals {
		dst = binary.AppendVarint(dst, vals[i])
		dst = appendWriteID(dst, writers[i])
	}
	return dst
}

// ---------------------------------------------------------------------
// decode helper

// stateReader decodes state fields sequentially, latching the first
// error so call sites stay linear.
type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.buf[r.off:])
	if k <= 0 {
		r.fail(ErrStateCorrupt)
		return 0
	}
	r.off += k
	return v
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.fail(ErrStateCorrupt)
		return 0
	}
	r.off += k
	return v
}

func (r *stateReader) vc(n int) vclock.VC {
	if r.err != nil {
		return nil
	}
	v, k, err := vclock.DecodeVC(r.buf[r.off:])
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrStateCorrupt, err))
		return nil
	}
	if v.Len() != n {
		r.fail(fmt.Errorf("%w: clock dimension %d, want %d", ErrStateCorrupt, v.Len(), n))
		return nil
	}
	r.off += k
	return v
}

func (r *stateReader) writeID() history.WriteID {
	p := r.varint()
	s := r.varint()
	return history.WriteID{Proc: int(p), Seq: int(s)}
}

// mem decodes a store encoded by appendMem into vals/writers in place.
func (r *stateReader) mem(vals []int64, writers []history.WriteID) {
	m := r.uvarint()
	if r.err != nil {
		return
	}
	if m != uint64(len(vals)) {
		r.fail(fmt.Errorf("%w: %d variables, want %d", ErrStateCorrupt, m, len(vals)))
		return
	}
	for i := range vals {
		vals[i] = r.varint()
		writers[i] = r.writeID()
	}
}

// header checks the leading kind tag and process count against the
// restoring replica.
func (r *stateReader) header(kind Kind, n int) {
	if k := r.uvarint(); r.err == nil && Kind(k) != kind {
		r.fail(fmt.Errorf("%w: state of kind %v restored into %v", ErrStateCorrupt, Kind(k), kind))
	}
	if g := r.uvarint(); r.err == nil && g != uint64(n) {
		r.fail(fmt.Errorf("%w: %d processes, want %d", ErrStateCorrupt, g, n))
	}
}

// ---------------------------------------------------------------------
// OptP (and its read-merge ablation)

// AppendState implements StateCodec.
func (r *optp) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Kind()))
	dst = binary.AppendUvarint(dst, uint64(r.n))
	dst = r.apply.AppendBinary(dst)
	dst = r.writeCo.AppendBinary(dst)
	dst = binary.AppendUvarint(dst, uint64(len(r.lastOn)))
	for _, vc := range r.lastOn {
		dst = vc.AppendBinary(dst)
	}
	return appendMem(dst, r.vals, r.writers)
}

// RestoreState implements StateCodec.
func (r *optp) RestoreState(data []byte) (int, error) {
	sr := &stateReader{buf: data}
	sr.header(r.Kind(), r.n)
	apply := sr.vc(r.n)
	writeCo := sr.vc(r.n)
	nv := sr.uvarint()
	if sr.err == nil && nv != uint64(len(r.lastOn)) {
		sr.fail(fmt.Errorf("%w: %d LastWriteOn vectors, want %d", ErrStateCorrupt, nv, len(r.lastOn)))
	}
	lastOn := make([]vclock.VC, len(r.lastOn))
	for i := range lastOn {
		lastOn[i] = sr.vc(r.n)
	}
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	sr.mem(vals, writers)
	if sr.err != nil {
		return sr.off, sr.err
	}
	r.apply, r.writeCo, r.lastOn = apply, writeCo, lastOn
	r.vals, r.writers = vals, writers
	return sr.off, nil
}

// Lacks implements Resumer: p lacks u iff its sequence number exceeds
// the writes of its issuer p has applied.
func (r *optp) Lacks(_ int, v vclock.VC, u Update) bool {
	if v == nil {
		v = r.apply
	}
	return uint64(u.ID.Seq) > v.Get(u.From())
}

// ---------------------------------------------------------------------
// ANBKH

// AppendState implements StateCodec.
func (r *anbkh) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(ANBKH))
	dst = binary.AppendUvarint(dst, uint64(r.n))
	dst = r.vt.AppendBinary(dst)
	return appendMem(dst, r.vals, r.writers)
}

// RestoreState implements StateCodec.
func (r *anbkh) RestoreState(data []byte) (int, error) {
	sr := &stateReader{buf: data}
	sr.header(ANBKH, r.n)
	vt := sr.vc(r.n)
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	sr.mem(vals, writers)
	if sr.err != nil {
		return sr.off, sr.err
	}
	r.vt, r.vals, r.writers = vt, vals, writers
	return sr.off, nil
}

// Lacks implements Resumer, as for OptP.
func (r *anbkh) Lacks(_ int, v vclock.VC, u Update) bool {
	if v == nil {
		v = r.vt
	}
	return uint64(u.ID.Seq) > v.Get(u.From())
}

// ---------------------------------------------------------------------
// PartialRep

// AppendState implements StateCodec. The share-set assignment itself is
// configuration, not state — the restoring replica must be constructed
// under the same assignment, which the local-slot count check enforces.
func (r *partialrep) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(PartialRep))
	dst = binary.AppendUvarint(dst, uint64(r.n))
	dst = r.mat.AppendBinary(dst)
	dst = r.applied.AppendBinary(dst)
	dst = binary.AppendUvarint(dst, uint64(r.issued))
	dst = binary.AppendUvarint(dst, uint64(r.readTok))
	dst = appendMem(dst, r.vals, r.writers)
	dst = binary.AppendUvarint(dst, uint64(len(r.lastOn)))
	for _, vc := range r.lastOn {
		dst = vc.AppendBinary(dst)
	}
	return dst
}

// RestoreState implements StateCodec.
func (r *partialrep) RestoreState(data []byte) (int, error) {
	sr := &stateReader{buf: data}
	sr.header(PartialRep, r.n)
	mat := sr.vc(r.n * r.n)
	applied := sr.vc(r.n)
	issued := sr.uvarint()
	readTok := sr.uvarint()
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	sr.mem(vals, writers)
	nl := sr.uvarint()
	if sr.err == nil && nl != uint64(len(r.lastOn)) {
		sr.fail(fmt.Errorf("%w: %d LastOn matrices, want %d", ErrStateCorrupt, nl, len(r.lastOn)))
	}
	lastOn := make([]vclock.VC, len(r.lastOn))
	for i := range lastOn {
		lastOn[i] = sr.vc(r.n * r.n)
	}
	if sr.err != nil {
		return sr.off, sr.err
	}
	r.mat, r.applied = mat, applied
	r.issued, r.readTok = int(issued), int(readTok)
	r.vals, r.writers, r.lastOn = vals, writers, lastOn
	return sr.off, nil
}

// Lacks implements Resumer: p lacks a write iff p replicates its
// variable and its position on the (writer, p) edge is beyond what p has
// applied. Positions only grow along a writer's issue order.
func (r *partialrep) Lacks(p int, v vclock.VC, u Update) bool {
	if v == nil {
		v = r.applied
	}
	return r.shares.Replicates(p, u.Var) && u.Clock.Get(u.From()*r.n+p) > v.Get(u.From())
}
