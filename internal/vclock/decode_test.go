package vclock

import "repro/internal/varint"

// The byte-slice forms of the reader-based clock decoders the tests
// drive; in the program these clocks are only ever read nested inside
// an update or a token.

func decode(buf []byte, read func(*varint.Reader) VC) (VC, int, error) {
	r := newReader(buf)
	v := read(&r)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return v, r.Off(), nil
}

func DecodeDelta(buf []byte, base VC) (VC, int, error) {
	return decode(buf, func(r *varint.Reader) VC { return ReadDelta(r, base) })
}

func DecodeStab(buf []byte) (VC, int, error) { return decode(buf, ReadStab) }

func (a *Adaptive) DecodeDeltaSigned(buf []byte) (VC, int, error) {
	return decode(buf, a.ReadDeltaSigned)
}
