package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The framing of every stream: serving-tier connections and TCP
// transport links carry uvarint-length-prefixed frames. FrameReader
// reads them through one bufio.Reader per stream, so a pipelined stream
// costs at most one read(2) per frame, fewer when frames arrive together.

// MaxWireFrame bounds a serving-tier frame in either direction. Requests
// and responses are tens of bytes; near the bound a stream is corrupt.
const MaxWireFrame = 1 << 16

// AppendFrame appends payload to dst behind its uvarint length prefix.
func AppendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(payload))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// FrameReader reads AppendFrame frames off a stream. Not safe for
// concurrent use; a stream has one reader.
type FrameReader struct {
	br  prefixReader
	max uint64
}

// prefixReader is the stream's buffer, counting the bytes
// binary.ReadUvarint takes from it for a length prefix and keeping the
// stream's error on the last of them.
type prefixReader struct {
	*bufio.Reader
	n   int
	err error
}

func (p *prefixReader) ReadByte() (byte, error) {
	p.n++
	b, err := p.Reader.ReadByte()
	p.err = err
	return b, err
}

// NewFrameReader buffers r and reads frames of at most maxFrame bytes
// from it. A length prefix above maxFrame fails Next before anything
// is allocated for the frame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	return &FrameReader{br: prefixReader{Reader: bufio.NewReader(r)}, max: uint64(maxFrame)}
}

// Next returns the next frame's payload, in place when it fits the
// buffer: valid only until the next call (the wire and update decoders
// copy what they return). The stream's end is io.EOF at a frame
// boundary, io.ErrUnexpectedEOF inside one. A prefix above the bound,
// overflowing, or not minimal — AppendFrame's is — is ErrWireCorrupt, so
// a stream reads as exactly one frame sequence.
func (f *FrameReader) Next() ([]byte, error) {
	f.br.n, f.br.err = 0, nil
	n, err := binary.ReadUvarint(&f.br)
	if err != nil && f.br.err == nil {
		// The stream delivered every byte: the prefix overflows 64 bits.
		err = fmt.Errorf("%w: frame length prefix overflows", ErrWireCorrupt)
	}
	if err != nil {
		return nil, err
	}
	if n > f.max || f.br.n > 1 && n>>(7*(f.br.n-1)) == 0 {
		return nil, fmt.Errorf("%w: frame length %d in a %d-byte prefix, bound %d", ErrWireCorrupt, n, f.br.n, f.max)
	}
	var frame []byte
	if int(n) <= f.br.Size() {
		frame, err = f.br.Peek(int(n))
		f.br.Discard(len(frame)) // cannot fail: Peek buffered these bytes
	} else {
		frame = make([]byte, n)
		_, err = io.ReadFull(f.br, frame)
	}
	if err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	} else if err != nil {
		return nil, err
	}
	return frame, nil
}
