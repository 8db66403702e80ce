package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/varint/varinttest"
)

// frameStream frames every request and response of the wire tests,
// plus an empty frame.
func frameStream() (stream []byte, frames [][]byte) {
	for _, r := range wireRequests() {
		frames = append(frames, r.AppendBinary(nil))
	}
	for _, tc := range wireResponses() {
		frames = append(frames, tc.r.AppendBinary(nil, tc.base))
	}
	frames = append(frames, []byte{})
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	return stream, frames
}

// bigFrame does not fit the reader's buffer.
var bigFrame = bytes.Repeat([]byte{0xA5}, 4097)

func TestFrameReaderRoundTrip(t *testing.T) {
	stream, frames := frameStream()
	stream = AppendFrame(stream, bigFrame)
	frames = append(frames, bigFrame)
	sources := map[string]func() io.Reader{
		"whole":     func() io.Reader { return bytes.NewReader(stream) },
		"byte-wise": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"halves":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
	}
	for name, src := range sources {
		r := NewFrameReader(src(), 8192)
		for i, want := range frames {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d = %x, want %x", name, i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

func TestFrameReaderRejects(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		max    int
		want   error
	}{
		{"prefix over the bound", AppendFrame(nil, make([]byte, 101)), 100, ErrWireCorrupt},
		{"huge prefix", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, MaxWireFrame, ErrWireCorrupt},
		{"non-minimal prefix", []byte{0x83, 0x00, 1, 2, 3}, 100, ErrWireCorrupt},
		{"non-minimal zero", []byte{0x80, 0x00}, 100, ErrWireCorrupt},
		{"truncated payload", []byte{3, 1, 2}, 100, io.ErrUnexpectedEOF},
		{"truncated large payload", AppendFrame(nil, make([]byte, 5000))[:4000], 8192, io.ErrUnexpectedEOF},
		{"truncated prefix", []byte{0x80}, 100, io.ErrUnexpectedEOF},
		{"empty stream", nil, 100, io.EOF},
	}
	for _, tc := range cases {
		r := NewFrameReader(bytes.NewReader(tc.stream), tc.max)
		if _, err := r.Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Next = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The bound is checked before anything is allocated for the frame.
	r := NewFrameReader(bytes.NewReader(binary.AppendUvarint(nil, 1<<30)), MaxWireFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrWireCorrupt) || after.TotalAlloc-before.TotalAlloc > 1<<16 {
		t.Fatalf("1 GiB prefix: %v after allocating %d bytes", err, after.TotalAlloc-before.TotalAlloc)
	}
}

// FuzzReadFrame feeds an arbitrary stream, whole and byte by byte, to a
// reader with an arbitrary bound, under varinttest.Check's contract: the
// stream fails with ErrWireCorrupt or io.ErrUnexpectedEOF, or its frames
// re-frame canonically. Beyond that the reader never returns a frame
// above the bound, and never skips or invents a byte: the frames it
// returns re-frame to the stream's next bytes, and a stream that ends
// cleanly is exactly its frames.
func FuzzReadFrame(f *testing.F) {
	for _, s := range readFrameSeeds() {
		f.Add(s.stream, s.max)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxFrame uint16) {
		reframe := func(frames [][]byte) (out []byte) {
			for _, fr := range frames {
				out = AppendFrame(out, fr)
			}
			return out
		}
		for _, wrap := range []func(io.Reader) io.Reader{nil, iotest.OneByteReader} {
			read := func(b []byte) ([][]byte, int, error) {
				var src io.Reader = bytes.NewReader(b)
				if wrap != nil {
					src = wrap(src)
				}
				r := NewFrameReader(src, int(maxFrame))
				var frames [][]byte
				for {
					frame, err := r.Next()
					if err == io.EOF {
						return frames, len(b), nil
					}
					if err != nil {
						return frames, 0, err
					}
					if len(frame) > int(maxFrame) {
						t.Fatalf("frame of %d bytes above the bound %d", len(frame), maxFrame)
					}
					frames = append(frames, bytes.Clone(frame))
					if got := reframe(frames); !bytes.HasPrefix(b, got) {
						t.Fatalf("frames re-frame as %x, stream reads %x", got, b)
					}
				}
			}
			frames, ok := varinttest.Check(t, data, read, reframe, framesEqual, ErrWireCorrupt, io.ErrUnexpectedEOF)
			if ok && !bytes.Equal(reframe(frames), data) {
				t.Fatalf("stream %x ended cleanly after frames %x", data, reframe(frames))
			}
		}
	})
}

// framesEqual compares two frame sequences.
func framesEqual(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// readFrameSeeds is FuzzReadFrame's committed seed corpus.
func readFrameSeeds() []struct {
	stream []byte
	max    uint16
} {
	stream, _ := frameStream()
	return []struct {
		stream []byte
		max    uint16
	}{
		{stream, 8192},
		{stream, 40}, // some frames are over the bound
		{AppendFrame(nil, bigFrame), 8192},
		{AppendFrame(AppendFrame(nil, []byte("ab")), nil), 2},
		{AppendFrame(nil, make([]byte, 101)), 100},
		{[]byte{0x83, 0x00, 1, 2, 3}, 100},
		{[]byte{0x80, 0x00}, 100},
		{[]byte{3, 1, 2}, 100},
		{[]byte{0x80}, 100},
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 65535},
		{nil, 0},
	}
}

// countingReader is a socket stand-in for BenchmarkReadFrame: it
// serves frame over and over and counts the Read calls made on it.
// With perRead set, one Read hands over at most the rest of the
// current frame — a socket whose frames arrive one at a time; without
// it a Read fills whatever it is given — a pipelined socket with
// frames queued behind each other.
type countingReader struct {
	frame   []byte
	off     int
	perRead bool
	reads   int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	n := 0
	for n < len(p) {
		k := copy(p[n:], c.frame[c.off:])
		n += k
		c.off = (c.off + k) % len(c.frame)
		if c.perRead && c.off == 0 {
			break
		}
	}
	return n, nil
}

// BenchmarkReadFrame reads write-request frames off a counting stream
// and reports read calls per frame next to ns and allocations.
func BenchmarkReadFrame(b *testing.B) {
	req := wireRequests()[len(wireRequests())-1]
	frame := AppendFrame(nil, req.AppendBinary(nil))
	for _, mode := range []struct {
		name    string
		perRead bool
	}{{"pipelined", false}, {"one-frame-per-read", true}} {
		b.Run(mode.name, func(b *testing.B) {
			src := &countingReader{frame: frame, perRead: mode.perRead}
			r := NewFrameReader(src, MaxWireFrame)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Next(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(src.reads)/float64(b.N), "reads/frame")
		})
	}
}
