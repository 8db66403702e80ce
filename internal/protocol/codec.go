package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/varint"
	"repro/internal/vclock"
)

// Wire format of an Update (all integers varint/uvarint):
//
//	proc, seq          — WriteID (seq is varint: markers and forwarded
//	                     reads use negatives)
//	var, val           — location (varint; -1 for markers) and payload
//	clock              — vclock wire encoding (may be empty/zero-dim)
//	flags              — bit 0: read request, bit 1: read reply,
//	                     bit 2: summary, bit 3: Prev follows
//	prevProc, prevSeq  — Prev, present iff flag bit 3 is set
//
// Flag bits above bit 3, and a Prev bit followed by ⊥, are malformed:
// the encoder never writes them, so every update decodes to bytes that
// encode back to themselves. The codec is used by the TCP transport; it
// allocates only the destination buffer and round-trips every field
// exactly.

// ErrUpdateTruncated reports a buffer ending inside an encoded update,
// or bytes that encode none: a varint overflowing 64 bits, an unknown
// clock tag, a clock dimension above vclock.MaxDecodeDim, an unknown
// flag bit or a flagged ⊥ Prev. A link out of sync is ErrClockResync,
// which does not match it.
var ErrUpdateTruncated = errors.New("protocol: truncated update encoding")

// The flag bits of an encoded update.
const (
	flagReadReq = 1 << iota
	flagReadReply
	flagSummary
	flagPrev
	flagsKnown = flagReadReq | flagReadReply | flagSummary | flagPrev
)

// MaxUpdateSize bounds one encoded update in every metadata codec mode:
// seven integer fields (proc, seq, var, val, flags, prevProc, prevSeq),
// a clock header of at most four integers (tag, checksum, dimension or
// count, floor), and at most two integers per component of a clock no
// decoder accepts above vclock.MaxDecodeDim.
const MaxUpdateSize = (7 + 4 + 2*vclock.MaxDecodeDim) * binary.MaxVarintLen64

// AppendBinary appends the wire encoding of u to dst.
func (u Update) AppendBinary(dst []byte) []byte {
	return u.appendWith(dst, vclock.VC.AppendBinary)
}

// appendWith appends u with the clock field produced by encClock — the
// seam the metadata codec plugs into. Every other field keeps the
// layout above, so the plain path (WAL, snapshots, codec-off wire)
// stays byte-identical.
func (u Update) appendWith(dst []byte, encClock func(vclock.VC, []byte) []byte) []byte {
	dst = appendWriteID(dst, u.ID)
	dst = binary.AppendVarint(dst, int64(u.Var))
	dst = binary.AppendVarint(dst, u.Val)
	dst = encClock(u.Clock, dst)
	var flags uint64
	for i, set := range [...]bool{u.ReadReq, u.ReadReply, u.Summary, !u.Prev.IsBottom()} {
		if set {
			flags |= 1 << i
		}
	}
	dst = binary.AppendUvarint(dst, flags)
	if flags&flagPrev != 0 {
		dst = appendWriteID(dst, u.Prev)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (u Update) MarshalBinary() ([]byte, error) {
	return u.AppendBinary(make([]byte, 0, 32+2*u.Clock.Len())), nil
}

// DecodeUpdate decodes one update from the front of buf, returning it
// and the number of bytes consumed. Every failure wraps
// ErrUpdateTruncated.
func DecodeUpdate(buf []byte) (Update, int, error) {
	r := varint.NewReader(buf, ErrUpdateTruncated, ErrUpdateTruncated)
	u := ReadUpdate(&r)
	if err := r.Err(); err != nil {
		return Update{}, 0, err
	}
	return u, r.Off(), nil
}

// ReadUpdate reads one update in the plain encoding from r — the form
// journal entries and snapshots hold.
func ReadUpdate(r *varint.Reader) Update { return readUpdate(r, nil) }

// readUpdate reads one update whose clock field is read by the link
// decoder d, or in the plain encoding when d is nil — the decoding seam
// matching appendWith.
func readUpdate(r *varint.Reader, d *UpdateDecoder) Update {
	var u Update
	u.ID = readWriteID(r)
	u.Var = int(r.Varint())
	u.Val = r.Varint()
	var clock vclock.VC
	if d == nil {
		clock = vclock.ReadVC(r)
	} else {
		clock = d.readClock(r)
	}
	if clock.Len() > 0 {
		u.Clock = clock
	}
	flags := r.Uvarint()
	if flags&^flagsKnown != 0 {
		r.Fail(fmt.Errorf("unknown update flags %#x", flags))
	}
	u.ReadReq = flags&flagReadReq != 0
	u.ReadReply = flags&flagReadReply != 0
	u.Summary = flags&flagSummary != 0
	if flags&flagPrev != 0 {
		if u.Prev = readWriteID(r); u.Prev.IsBottom() {
			r.Fail(errors.New("flagged Prev is ⊥"))
		}
	}
	return u
}

// appendWriteID appends id as its (proc, seq) varint pair — the one
// WriteID encoding of updates, responses and replica state.
func appendWriteID(dst []byte, id history.WriteID) []byte {
	dst = binary.AppendVarint(dst, int64(id.Proc))
	return binary.AppendVarint(dst, int64(id.Seq))
}

// readWriteID reads an appendWriteID pair from r.
func readWriteID(r *varint.Reader) history.WriteID {
	proc := r.Varint()
	return history.WriteID{Proc: int(proc), Seq: int(r.Varint())}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (u *Update) UnmarshalBinary(data []byte) error {
	d, n, err := DecodeUpdate(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("protocol: %d trailing bytes after update", len(data)-n)
	}
	*u = d
	return nil
}
