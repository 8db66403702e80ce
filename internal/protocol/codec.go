package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// Wire format of an Update (all integers varint/uvarint):
//
//	proc, seq          — WriteID (seq is varint: markers use negatives)
//	var, val           — location (varint; -1 for markers) and payload
//	clock              — vclock wire encoding (may be empty/zero-dim)
//	prevProc, prevSeq  — overwritten-predecessor WriteID
//	round, slot, size  — token batch coordinates
//	flags              — bit 0: marker, bit 1: read request,
//	                     bit 2: read reply, bit 3: catch-up summary
//
// The codec is used by the TCP transport; it allocates only the
// destination buffer and round-trips every field exactly.

// ErrUpdateTruncated reports a buffer ending inside an encoded update.
var ErrUpdateTruncated = errors.New("protocol: truncated update encoding")

// MaxUpdateSize bounds one encoded update in every metadata codec mode:
// ten integer fields, a clock header of at most four integers (tag,
// checksum, dimension or count, floor), and at most two integers per
// component of a clock no decoder accepts above vclock.MaxDecodeDim.
const MaxUpdateSize = (10 + 4 + 2*vclock.MaxDecodeDim) * binary.MaxVarintLen64

// AppendBinary appends the wire encoding of u to dst.
func (u Update) AppendBinary(dst []byte) []byte {
	return u.appendWith(dst, vclock.VC.AppendBinary)
}

// appendWith appends u with the clock field produced by encClock — the
// seam the metadata codec plugs into. Every other field keeps the
// layout above, so the plain path (WAL, snapshots, codec-off wire)
// stays byte-identical.
func (u Update) appendWith(dst []byte, encClock func(vclock.VC, []byte) []byte) []byte {
	dst = binary.AppendVarint(dst, int64(u.ID.Proc))
	dst = binary.AppendVarint(dst, int64(u.ID.Seq))
	dst = binary.AppendVarint(dst, int64(u.Var))
	dst = binary.AppendVarint(dst, u.Val)
	dst = encClock(u.Clock, dst)
	dst = binary.AppendVarint(dst, int64(u.Prev.Proc))
	dst = binary.AppendVarint(dst, int64(u.Prev.Seq))
	dst = binary.AppendVarint(dst, int64(u.Round))
	dst = binary.AppendVarint(dst, int64(u.Slot))
	dst = binary.AppendVarint(dst, int64(u.BatchSize))
	var flags uint64
	for i, set := range [...]bool{u.Marker, u.ReadReq, u.ReadReply, u.Summary} {
		if set {
			flags |= 1 << i
		}
	}
	dst = binary.AppendUvarint(dst, flags)
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (u Update) MarshalBinary() ([]byte, error) {
	return u.AppendBinary(make([]byte, 0, 32+2*u.Clock.Len())), nil
}

// DecodeUpdate decodes one update from the front of buf, returning it
// and the number of bytes consumed.
func DecodeUpdate(buf []byte) (Update, int, error) {
	return decodeUpdateWith(buf, vclock.DecodeVC)
}

// decodeUpdateWith decodes one update with the clock field read by
// decClock, the decoding seam matching appendWith.
func decodeUpdateWith(buf []byte, decClock func([]byte) (vclock.VC, int, error)) (Update, int, error) {
	var u Update
	off := 0
	readV := func() (int64, error) {
		v, k := binary.Varint(buf[off:])
		if k <= 0 {
			return 0, ErrUpdateTruncated
		}
		off += k
		return v, nil
	}
	var proc, seq, vr, val int64
	for _, dst := range []*int64{&proc, &seq, &vr, &val} {
		v, err := readV()
		if err != nil {
			return u, 0, err
		}
		*dst = v
	}
	u.ID = history.WriteID{Proc: int(proc), Seq: int(seq)}
	u.Var = int(vr)
	u.Val = val

	clock, k, err := decClock(buf[off:])
	if err != nil {
		return u, 0, fmt.Errorf("protocol: update clock: %w", err)
	}
	if clock.Len() > 0 {
		u.Clock = clock
	}
	off += k

	var pp, ps, round, slot, size int64
	for _, dst := range []*int64{&pp, &ps, &round, &slot, &size} {
		v, err := readV()
		if err != nil {
			return u, 0, err
		}
		*dst = v
	}
	u.Prev = history.WriteID{Proc: int(pp), Seq: int(ps)}
	u.Round, u.Slot, u.BatchSize = int(round), int(slot), int(size)

	flags, k2 := binary.Uvarint(buf[off:])
	if k2 <= 0 {
		return u, 0, ErrUpdateTruncated
	}
	off += k2
	u.Marker = flags&1 != 0
	u.ReadReq = flags&2 != 0
	u.ReadReply = flags&4 != 0
	u.Summary = flags&8 != 0
	return u, off, nil
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
