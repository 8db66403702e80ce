package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/vclock"
)

// Causality-metadata codec: a per-link, mode-tagged encoding of the
// clock field of protocol updates. Every other Update field keeps the
// plain layout of codec.go; only the clock — the O(P) part — changes
// shape. Each encoded clock leads with a one-byte-uvarint tag:
//
//	0 dense — the plain vclock wire encoding (self-describing)
//	1 delta — signed per-link delta against the last clock shipped on
//	          this link, prefixed by a one-byte checksum of the base
//	          (desync on a link then fails loudly as ErrClockResync
//	          instead of silently reconstructing a wrong clock)
//	2 stab  — the stabilization scalar-plus-residuals encoding
//
// Tags are self-describing, so a decoder needs no mode configuration:
// any receiver decodes any sender's choice, and MetaAuto senders pick
// per message. Link state on both sides is one vclock.Adaptive — the
// last clock carried by the link — which follows the CausalMesh
// plain↔compressed density flip, so quiet links cost O(nnz) memory.
//
// Resync is structural: encoder and decoder state are created together
// with the link (one TCP connection, one in-process channel pair, one
// simulator link) and advance in lockstep because links are FIFO. A
// reconnect tears both down and recreates both at zero — the first
// message after a resync simply rides a self-describing tag (dense or
// stab) until the new base is established. WAL replay never sees this
// codec: durable state uses the plain encoding.

// MetaMode selects the causality-metadata codec of a transport link.
type MetaMode uint8

// The codec modes. MetaOff is the zero value: the legacy untagged wire
// format, byte-identical to Update.AppendBinary.
const (
	MetaOff MetaMode = iota
	// MetaDelta always ships per-link signed deltas (falling back to
	// dense on the first message of a link or a dimension change).
	MetaDelta
	// MetaStab always ships the stabilization scalar encoding.
	MetaStab
	// MetaAuto picks the smallest of dense, delta and stab per message.
	MetaAuto
)

// String implements fmt.Stringer.
func (m MetaMode) String() string {
	switch m {
	case MetaOff:
		return "off"
	case MetaDelta:
		return "delta"
	case MetaStab:
		return "stab"
	case MetaAuto:
		return "auto"
	default:
		return fmt.Sprintf("MetaMode(%d)", uint8(m))
	}
}

// Enabled reports whether the mode engages the codec at all.
func (m MetaMode) Enabled() bool { return m != MetaOff }

// Valid reports whether m is one of the defined modes.
func (m MetaMode) Valid() bool { return m <= MetaAuto }

// ParseMetaMode parses a -meta-codec flag value.
func ParseMetaMode(s string) (MetaMode, error) {
	for _, m := range []MetaMode{MetaOff, MetaDelta, MetaStab, MetaAuto} {
		if s == m.String() {
			return m, nil
		}
	}
	return MetaOff, fmt.Errorf("protocol: unknown meta codec %q (want off, delta, stab or auto)", s)
}

// Clock encoding tags (uvarint, first byte of an encoded clock).
const (
	clockTagDense = 0
	clockTagDelta = 1
	clockTagStab  = 2
)

// ErrClockResync reports a delta-tagged clock whose link base does not
// match the encoder's — the receiver must tear the link down and resync
// (fresh encoder and decoder) rather than trust the reconstruction.
var ErrClockResync = errors.New("protocol: clock delta against out-of-sync link base")

// UpdateEncoder encodes the updates of one (sender, receiver) link.
// Not safe for concurrent use; transports hold one per link under the
// link's send serialization.
type UpdateEncoder struct {
	mode MetaMode
	base vclock.Adaptive
	// clockLen reports the clock-field size of the last Append, for the
	// transports' meta-vs-payload byte accounting.
	clockLen int
}

// NewUpdateEncoder returns a fresh encoder (zero link base) for mode.
func NewUpdateEncoder(mode MetaMode) *UpdateEncoder {
	return &UpdateEncoder{mode: mode}
}

// Mode returns the encoder's configured mode.
func (e *UpdateEncoder) Mode() MetaMode { return e.mode }

// Reset forgets the link base — the sender half of a link resync. The
// matching decoder must be Reset (or recreated) too.
func (e *UpdateEncoder) Reset() { e.base.Reset() }

// Append appends the encoding of u to dst and returns the extended
// slice plus the byte size of the clock field (tag included) — the
// message's metadata share. With MetaOff the output is byte-identical
// to u.AppendBinary and the clock size is the plain encoding's.
func (e *UpdateEncoder) Append(dst []byte, u Update) ([]byte, int) {
	if e.mode == MetaOff {
		out := u.AppendBinary(dst)
		return out, u.Clock.EncodedSize()
	}
	out := u.appendWith(dst, func(c vclock.VC, b []byte) []byte {
		start := len(b)
		b = e.appendClock(b, c)
		e.clockLen = len(b) - start
		return b
	})
	return out, e.clockLen
}

// appendClock emits one tagged clock and advances the link base.
func (e *UpdateEncoder) appendClock(dst []byte, c vclock.VC) []byte {
	if len(c) == 0 {
		// Empty clock (markers): a two-byte dense encoding, and the
		// link base is left alone so the delta chain survives markers.
		dst = binary.AppendUvarint(dst, clockTagDense)
		return c.AppendBinary(dst)
	}
	deltaOK := e.base.Dim() == len(c)
	tag := clockTagDense
	switch e.mode {
	case MetaDelta:
		if deltaOK {
			tag = clockTagDelta
		}
	case MetaStab:
		tag = clockTagStab
	case MetaAuto:
		best := c.EncodedSize()
		if s := vclock.StabSize(c); s < best {
			best, tag = s, clockTagStab
		}
		if deltaOK {
			// +1 for the base checksum byte.
			if s := e.base.DeltaSignedSize(c) + 1; s < best {
				tag = clockTagDelta
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(tag))
	switch tag {
	case clockTagDense:
		dst = c.AppendBinary(dst)
	case clockTagDelta:
		dst = append(dst, e.base.Checksum())
		dst = e.base.AppendDeltaSigned(dst, c)
	case clockTagStab:
		dst = vclock.AppendStab(dst, c)
	}
	e.base.CopyFrom(c)
	return dst
}

// UpdateDecoder decodes the updates of one (sender, receiver) link.
// Not safe for concurrent use; transports hold one per inbound link
// (one per connection on a real network).
type UpdateDecoder struct {
	mode     MetaMode
	base     vclock.Adaptive
	clockLen int
}

// NewUpdateDecoder returns a fresh decoder (zero link base) for mode.
// Only MetaOff vs enabled matters on the decode side — tags are
// self-describing — but carrying the mode keeps construction symmetric
// with the encoder and lets one call site serve both wire formats.
func NewUpdateDecoder(mode MetaMode) *UpdateDecoder {
	return &UpdateDecoder{mode: mode}
}

// Reset forgets the link base — the receiver half of a link resync.
func (d *UpdateDecoder) Reset() { d.base.Reset() }

// Decode decodes one update from the front of buf, returning it, the
// bytes consumed, and the byte size of the clock field (tag included).
func (d *UpdateDecoder) Decode(buf []byte) (Update, int, int, error) {
	if d.mode == MetaOff {
		u, n, err := DecodeUpdate(buf)
		if err != nil {
			return u, 0, 0, err
		}
		return u, n, u.Clock.EncodedSize(), nil
	}
	d.clockLen = 0
	u, n, err := decodeUpdateWith(buf, func(b []byte) (vclock.VC, int, error) {
		c, k, err := d.decodeClock(b)
		d.clockLen = k
		return c, k, err
	})
	if err != nil {
		return u, 0, 0, err
	}
	return u, n, d.clockLen, nil
}

// decodeClock reads one tagged clock and advances the link base.
func (d *UpdateDecoder) decodeClock(buf []byte) (vclock.VC, int, error) {
	tag, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, 0, vclock.ErrTruncated
	}
	off := k
	var c vclock.VC
	var n int
	var err error
	switch tag {
	case clockTagDense:
		c, n, err = vclock.DecodeVC(buf[off:])
	case clockTagDelta:
		if off >= len(buf) {
			return nil, 0, vclock.ErrTruncated
		}
		sum := buf[off]
		off++
		if d.base.Dim() == 0 {
			return nil, 0, fmt.Errorf("%w: no base on this link", ErrClockResync)
		}
		if d.base.Checksum() != sum {
			return nil, 0, fmt.Errorf("%w: base checksum %#x, frame expects %#x",
				ErrClockResync, d.base.Checksum(), sum)
		}
		c, n, err = d.base.DecodeDeltaSigned(buf[off:])
	case clockTagStab:
		c, n, err = vclock.DecodeStab(buf[off:])
	default:
		return nil, 0, fmt.Errorf("vclock: unknown clock tag %d", tag)
	}
	if err != nil {
		return nil, 0, err
	}
	if len(c) > 0 {
		d.base.CopyFrom(c)
	}
	return c, off + n, nil
}
