package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
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

// FrameWriter writes AppendFrame frames onto a stream shared by
// concurrent senders, as a group commit with no linger. A sender either
// queues its frame for later (QueueFrame) or sends it (WriteFrame):
// unless another sender is writing, a WriteFrame becomes the writer: it
// yields once, so the goroutines its caller woke can queue theirs, then
// writes the whole queue per Write until it is empty, however long
// others keep queueing. Flush does the same for what is queued already.
// A sender finding MaxWireFrame bytes queued waits for the writer to
// take them, so a peer that stops reading stops its senders; with no
// writer it writes them itself. A failed Write drops its batch and the
// queue, and is sticky.
type FrameWriter struct {
	w      io.Writer
	mu     sync.Mutex
	room   sync.Cond // the writer took the queue, or quit
	queue  []byte
	spare  []byte // the last batch's buffer, for reuse
	frames int    // in queue
	busy   bool   // a sender is writing
	err    error
}

// NewFrameWriter writes frames onto w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	f := &FrameWriter{w: w}
	f.room.L = &f.mu
	return f
}

// WriteFrame queues payload's frame and writes the queue; it does not
// keep payload. While another sender writes it returns 0, nil: the
// frame leaves with that sender's next Write. Otherwise n counts the
// frames it wrote or, with an error, lost: its failed batch and
// everything queued behind it, or its own frame after an earlier
// failure.
func (f *FrameWriter) WriteFrame(payload []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.queueLocked(payload)
	if err != nil || f.busy {
		return n, err
	}
	m, err := f.flushLocked()
	if err != nil {
		return m, err
	}
	return n + m, nil
}

// QueueFrame queues payload's frame without writing it; it does not
// keep payload. The frame leaves with the next Flush, or with another
// sender's Write, in queue order. Only when MaxWireFrame bytes are
// queued and no sender is writing does it write them itself first, so
// a caller that alone flushes cannot wait on itself; n counts those
// frames, or with an error the frames lost, as for WriteFrame.
func (f *FrameWriter) QueueFrame(payload []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queueLocked(payload)
}

// Flush writes the queued frames as WriteFrame does, yielding once
// first. While another sender writes, or with nothing queued, it
// returns 0, nil; after an earlier failure, 0 and that failure.
func (f *FrameWriter) Flush() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil || f.busy || f.frames == 0 {
		return 0, f.err
	}
	return f.flushLocked()
}

// queueLocked appends payload's frame to the queue once the queue is
// under MaxWireFrame bytes: it waits for the writer to take them or,
// with no writer, writes them itself.
func (f *FrameWriter) queueLocked(payload []byte) (n int, err error) {
	for len(f.queue) >= MaxWireFrame && f.err == nil {
		if f.busy {
			f.room.Wait()
			continue
		}
		f.busy = true
		n, err = f.drainLocked()
	}
	if f.err != nil {
		return n + 1, f.err
	}
	f.queue = AppendFrame(f.queue, payload)
	f.frames++
	return n, nil
}

// flushLocked becomes the writer, yields once, and writes the queue:
// with few Ps, the senders its caller woke would each write alone.
func (f *FrameWriter) flushLocked() (int, error) {
	f.busy = true
	f.mu.Unlock()
	runtime.Gosched()
	f.mu.Lock()
	return f.drainLocked()
}

// drainLocked writes the whole queue per Write until it is empty or a
// Write fails, then stops being the writer; the caller holds mu and has
// set busy. n counts the frames written or, with an error, lost: the
// failed batch and everything queued behind it.
func (f *FrameWriter) drainLocked() (n int, err error) {
	for f.frames > 0 && err == nil {
		batch, k := f.queue, f.frames
		f.queue, f.spare, f.frames = f.spare[:0], nil, 0
		f.room.Broadcast()
		f.mu.Unlock()
		_, err = f.w.Write(batch)
		f.mu.Lock()
		if f.spare, n = batch[:0], n+k; err != nil {
			n, f.err, f.queue, f.frames = k+f.frames, err, nil, 0
		}
	}
	f.busy = false
	f.room.Broadcast()
	return n, err
}
