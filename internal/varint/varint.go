// Package varint is the one byte reader behind every decoder that faces
// a socket or a disk: the update and clock codecs, the serving tier's
// requests, responses and session tokens, the replica state codec, the
// journal's entries and the snapshot tail.
//
// A Reader walks a byte slice field by field and latches its first
// failure: once a read fails, every later read returns the zero value
// and leaves the offset alone, so a decoder reads as straight-line code
// and checks Err once at the end. Every failure wraps one of the two
// sentinel errors the caller built the reader with — short when the
// bytes run out, bad for anything malformed (a varint overflowing 64
// bits, a count above its cap) — so each decoder keeps a single error
// contract however deeply its fields nest. Stop latches a failure that
// must match neither, such as a link out of sync.
//
// Count is the one length-prefix rule: a count is rejected when it is
// above the caller's cap or above the bytes left, since every counted
// item takes at least one byte. A hostile prefix therefore never drives
// an allocation larger than the input that carried it.
package varint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Reader decodes varint-framed fields from the front of a byte slice.
// The zero Reader is not usable; build one with NewReader.
type Reader struct {
	buf   []byte
	off   int
	short error
	bad   error
	err   error
}

// NewReader returns a reader over buf. Reads past the end of buf fail
// with short; overflowing varints, counts above their cap and every
// error passed to Fail fail with bad. Most decoders have one sentinel
// and pass it twice.
func NewReader(buf []byte, short, bad error) Reader {
	return Reader{buf: buf, short: short, bad: bad}
}

// Err returns the latched failure, nil while every read succeeded.
func (r *Reader) Err() error { return r.err }

// Off returns the number of bytes consumed so far.
func (r *Reader) Off() int { return r.off }

// Fail latches err as the reader's failure unless one is latched
// already. An err that wraps neither sentinel is wrapped under bad, so
// the error a decoder returns always matches its contract.
func (r *Reader) Fail(err error) {
	if r.err != nil {
		return
	}
	if !errors.Is(err, r.short) && !errors.Is(err, r.bad) {
		err = fmt.Errorf("%w: %w", r.bad, err)
	}
	r.err = err
}

// Stop latches err as it is, unless a failure is latched already: a
// failure the caller's contract names beside the two sentinels, which
// must match neither of them.
func (r *Reader) Stop(err error) {
	if r.err == nil {
		r.err = err
	}
}

// truncated latches the short sentinel for a read at the current
// offset.
func (r *Reader) truncated(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d of %d", r.short, what, r.off, len(r.buf))
	}
}

// varintFailed latches the failure of a varint read whose length k
// from encoding/binary is not positive: 0 when the bytes ran out, below
// 0 when the varint overflows 64 bits.
func (r *Reader) varintFailed(k int, what string) {
	if k == 0 {
		r.truncated(what)
		return
	}
	r.Fail(fmt.Errorf("%w: %s at offset %d overflows 64 bits", r.bad, what, r.off))
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.varintFailed(k, "uvarint")
		return 0
	}
	r.off += k
	return x
}

// Varint reads one zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, k := binary.Varint(r.buf[r.off:])
	if k <= 0 {
		r.varintFailed(k, "varint")
		return 0
	}
	r.off += k
	return x
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.truncated("byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bytes reads n raw bytes. The result aliases the reader's input; copy
// it to keep it past the input's lifetime.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.truncated(fmt.Sprintf("%d bytes", n))
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Uvarints fills dst with consecutive unsigned varints: the component
// loop of a clock, in one call and one pass over the bytes. It applies
// binary.Uvarint's rules — out of bytes is short, an eleventh byte or a
// tenth above 1 overflows — without re-slicing the buffer per
// component, which costs a multi-byte clock more than the loop itself.
// On failure dst holds a prefix of the values and the reader is latched
// at the start of the varint that failed.
func (r *Reader) Uvarints(dst []uint64) {
	if r.err != nil {
		return
	}
	buf, off := r.buf, r.off
	for i := range dst {
		start := off
		var x uint64
		for s := uint(0); ; s += 7 {
			if off == len(buf) {
				r.off = start
				r.varintFailed(0, "uvarint")
				return
			}
			b := buf[off]
			off++
			if s > 63 || s == 63 && b > 1 && b < 0x80 {
				r.off = start
				r.varintFailed(-1, "uvarint")
				return
			}
			if b < 0x80 {
				x |= uint64(b) << s
				break
			}
			x |= uint64(b&0x7f) << s
		}
		dst[i] = x
	}
	r.off = off
}

// Count reads a length prefix: an unsigned varint that counts items of
// at least one byte each. A count above max fails with bad; one above
// the bytes left fails with short. Either way Count returns 0, so the
// caller's allocation stays bounded by its input.
func (r *Reader) Count(max int) int {
	n := r.Uvarint()
	switch {
	case r.err != nil:
		return 0
	case n > uint64(max):
		r.Fail(fmt.Errorf("%w: count %d above cap %d", r.bad, n, max))
		return 0
	case n > uint64(len(r.buf)-r.off):
		r.truncated(fmt.Sprintf("count %d with %d bytes left", n, len(r.buf)-r.off))
		return 0
	}
	return int(n)
}
