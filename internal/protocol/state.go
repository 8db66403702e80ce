package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/varint"
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
// codec helpers

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

// appendClocks encodes a length-prefixed list of clocks.
func appendClocks(dst []byte, vs []vclock.VC) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// newStateReader reads a state encoding; every failure wraps
// ErrStateCorrupt.
func newStateReader(data []byte) varint.Reader {
	return varint.NewReader(data, ErrStateCorrupt, ErrStateCorrupt)
}

// readHeader checks the leading kind tag and process count against the
// restoring replica.
func readHeader(r *varint.Reader, kind Kind, n int) {
	if k := r.Uvarint(); r.Err() == nil && Kind(k) != kind {
		r.Fail(fmt.Errorf("%w: state of kind %v restored into %v", ErrStateCorrupt, Kind(k), kind))
	}
	readShape(r, "processes", n)
}

// readShape reads a uvarint that must equal the restoring replica's
// want — a shape check, not a count.
func readShape(r *varint.Reader, what string, want int) {
	if got := r.Uvarint(); r.Err() == nil && got != uint64(want) {
		r.Fail(fmt.Errorf("%w: %d %s, want %d", ErrStateCorrupt, got, what, want))
	}
}

// readClock reads one clock that must have dimension n.
func readClock(r *varint.Reader, n int) vclock.VC {
	v := vclock.ReadVC(r)
	if r.Err() == nil && v.Len() != n {
		r.Fail(fmt.Errorf("%w: clock dimension %d, want %d", ErrStateCorrupt, v.Len(), n))
	}
	return v
}

// readClocks reads an appendClocks list of len(dst) clocks of
// dimension n into dst.
func readClocks(r *varint.Reader, what string, dst []vclock.VC, n int) {
	readShape(r, what, len(dst))
	for i := range dst {
		dst[i] = readClock(r, n)
	}
}

// readMem decodes a store encoded by appendMem into vals/writers in
// place.
func readMem(r *varint.Reader, vals []int64, writers []history.WriteID) {
	readShape(r, "variables", len(vals))
	for i := range vals {
		vals[i] = r.Varint()
		writers[i] = readWriteID(r)
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
	dst = appendClocks(dst, r.lastOn)
	return appendMem(dst, r.vals, r.writers)
}

// RestoreState implements StateCodec.
func (r *optp) RestoreState(data []byte) (int, error) {
	sr := newStateReader(data)
	readHeader(&sr, r.Kind(), r.n)
	apply := readClock(&sr, r.n)
	writeCo := readClock(&sr, r.n)
	lastOn := make([]vclock.VC, len(r.lastOn))
	readClocks(&sr, "LastWriteOn vectors", lastOn, r.n)
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	readMem(&sr, vals, writers)
	if err := sr.Err(); err != nil {
		return sr.Off(), err
	}
	r.apply, r.writeCo, r.lastOn = apply, writeCo, lastOn
	r.vals, r.writers = vals, writers
	return sr.Off(), nil
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
	sr := newStateReader(data)
	readHeader(&sr, ANBKH, r.n)
	vt := readClock(&sr, r.n)
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	readMem(&sr, vals, writers)
	if err := sr.Err(); err != nil {
		return sr.Off(), err
	}
	r.vt, r.vals, r.writers = vt, vals, writers
	return sr.Off(), nil
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
	return appendClocks(dst, r.lastOn)
}

// RestoreState implements StateCodec.
func (r *partialrep) RestoreState(data []byte) (int, error) {
	sr := newStateReader(data)
	readHeader(&sr, PartialRep, r.n)
	mat := readClock(&sr, r.n*r.n)
	applied := readClock(&sr, r.n)
	issued := sr.Uvarint()
	readTok := sr.Uvarint()
	vals := make([]int64, len(r.vals))
	writers := make([]history.WriteID, len(r.writers))
	readMem(&sr, vals, writers)
	lastOn := make([]vclock.VC, len(r.lastOn))
	readClocks(&sr, "LastOn matrices", lastOn, r.n*r.n)
	if err := sr.Err(); err != nil {
		return sr.Off(), err
	}
	r.mat, r.applied = mat, applied
	r.issued, r.readTok = int(issued), int(readTok)
	r.vals, r.writers, r.lastOn = vals, writers, lastOn
	return sr.Off(), nil
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
