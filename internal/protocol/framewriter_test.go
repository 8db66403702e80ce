package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateWriter records every Write; its first Write blocks until release
// is closed, and then returns err.
type gateWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
	err     error
	entered chan struct{}
	release chan struct{}
}

func newGateWriter(err error) *gateWriter {
	return &gateWriter{err: err, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes++
	first := g.writes == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
		if g.err != nil {
			return 0, g.err
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.Write(p)
	return len(p), nil
}

func (g *gateWriter) state() (writes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes
}

// While the writing sender is blocked inside its Write, every other
// sender only queues: each returns (0, nil) without writing, and the
// writer then carries all of their frames in one more Write.
func TestFrameWriterCombines(t *testing.T) {
	const senders = 16
	g := newGateWriter(nil)
	w := NewFrameWriter(g)
	first := make(chan error, 1)
	go func() {
		n, err := w.WriteFrame([]byte{0})
		if err == nil && n != 1+senders {
			err = fmt.Errorf("writer wrote %d frames, want %d", n, 1+senders)
		}
		first <- err
	}()
	<-g.entered
	var wg sync.WaitGroup
	for i := 1; i <= senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := w.WriteFrame([]byte{byte(i)}); n != 0 || err != nil {
				t.Errorf("sender %d behind a blocked write: (%d, %v), want (0, nil)", i, n, err)
			}
		}()
	}
	wg.Wait()
	if writes := g.state(); writes != 1 {
		t.Fatalf("%d writes while the first Write blocks, want 1", writes)
	}
	close(g.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if writes := g.state(); writes != 2 {
		t.Fatalf("%d writes after the release, want 2", writes)
	}
	r := NewFrameReader(&g.buf, MaxWireFrame)
	seen := map[byte]bool{}
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		seen[f[0]] = true
	}
	if len(seen) != 1+senders {
		t.Fatalf("read back %d distinct frames, want %d", len(seen), 1+senders)
	}
}

// Eight senders, a thousand frames each, through one writer: every
// frame is read back exactly once, and each sender's frames in the
// order it sent them.
func TestFrameWriterOrderExactlyOnce(t *testing.T) {
	const senders, frames = 8, 1000
	var buf bytes.Buffer // written only by the writing sender
	w := NewFrameWriter(&buf)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				p := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(s)), uint64(i))
				if _, err := w.WriteFrame(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r := NewFrameReader(&buf, MaxWireFrame)
	var next [senders]uint64
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		s, k := binary.Uvarint(f)
		i, _ := binary.Uvarint(f[k:])
		if s >= senders || i != next[s] {
			t.Fatalf("sender %d frame %d arrived when %d was due", s, i, next[s%senders])
		}
		next[s]++
	}
	for s, n := range next {
		if n != frames {
			t.Fatalf("sender %d: %d frames arrived, want %d", s, n, frames)
		}
	}
}

// A failed Write is sticky: the writer learns how many frames it lost,
// its batch and everything queued behind it, and every later sender
// gets the same error without another Write.
func TestFrameWriterStickyError(t *testing.T) {
	boom := errors.New("boom")
	g := newGateWriter(boom)
	w := NewFrameWriter(g)
	first := make(chan int, 1)
	go func() {
		n, err := w.WriteFrame([]byte{0})
		if !errors.Is(err, boom) {
			t.Errorf("failed write returned %v, want %v", err, boom)
		}
		first <- n
	}()
	<-g.entered
	for i := 1; i <= 5; i++ {
		if n, err := w.WriteFrame([]byte{byte(i)}); n != 0 || err != nil {
			t.Fatalf("queued sender: (%d, %v), want (0, nil)", n, err)
		}
	}
	close(g.release)
	if n := <-first; n != 6 {
		t.Fatalf("failed write lost %d frames, want 6 (its own batch and the five queued)", n)
	}
	for i := 0; i < 3; i++ {
		if n, err := w.WriteFrame([]byte{9}); n != 1 || !errors.Is(err, boom) {
			t.Fatalf("send after the failure: (%d, %v), want (1, %v)", n, err, boom)
		}
	}
	if writes := g.state(); writes != 1 {
		t.Fatalf("%d writes after a failure, want 1", writes)
	}
}

// While MaxWireFrame bytes wait behind a blocked Write, the next sender
// blocks instead of queueing more; it queues once the writer takes the
// queue. Every frame is written once.
func TestFrameWriterBoundsQueue(t *testing.T) {
	g := newGateWriter(nil)
	w := NewFrameWriter(g)
	first := make(chan error, 1)
	go func() {
		_, err := w.WriteFrame([]byte{0})
		first <- err
	}()
	<-g.entered
	payload := make([]byte, 1024)
	queued := 0
	for ; queued*(2+len(payload)) < MaxWireFrame; queued++ {
		if n, err := w.WriteFrame(payload); n != 0 || err != nil {
			t.Fatalf("sender %d under the bound: (%d, %v), want (0, nil)", queued, n, err)
		}
	}
	over := make(chan error, 1)
	go func() {
		_, err := w.WriteFrame(payload)
		over <- err
	}()
	select {
	case err := <-over:
		t.Fatalf("sender past the bound returned (%v) while the Write blocks", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	for _, ch := range []chan error{first, over} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	r := NewFrameReader(&g.buf, MaxWireFrame)
	n := 0
	for ; ; n++ {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if want := 1 + queued + 1; n != want {
		t.Fatalf("read back %d frames, want %d", n, want)
	}
}

// readFrames reads back every frame of a stream, one byte each.
func readFrames(t *testing.T, r io.Reader) []byte {
	t.Helper()
	fr := NewFrameReader(r, MaxWireFrame)
	var got []byte
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return got
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, f[0])
	}
}

// Queued frames are not written until a Flush, which writes all of
// them in one Write and in queue order; a Flush with nothing queued
// writes nothing.
func TestFrameWriterQueueLeavesWithFlush(t *testing.T) {
	g := newGateWriter(nil)
	close(g.release)
	w := NewFrameWriter(g)
	for i := 0; i < 5; i++ {
		if n, err := w.QueueFrame([]byte{byte(i)}); n != 0 || err != nil {
			t.Fatalf("QueueFrame %d: (%d, %v), want (0, nil)", i, n, err)
		}
	}
	if writes := g.state(); writes != 0 {
		t.Fatalf("%d writes before the Flush, want 0", writes)
	}
	if n, err := w.Flush(); n != 5 || err != nil {
		t.Fatalf("Flush: (%d, %v), want (5, nil)", n, err)
	}
	if n, err := w.Flush(); n != 0 || err != nil {
		t.Fatalf("empty Flush: (%d, %v), want (0, nil)", n, err)
	}
	if writes := g.state(); writes != 1 {
		t.Fatalf("%d writes, want 1", writes)
	}
	if got := readFrames(t, &g.buf); !bytes.Equal(got, []byte{0, 1, 2, 3, 4}) {
		t.Fatalf("frames %v, want 0..4 in queue order", got)
	}
}

// Frames queued while another sender writes leave with that sender's
// next Write, in queue order, with no Flush; a Flush meanwhile returns
// at once and leaves the queue to the writer.
func TestFrameWriterQueueLeavesWithWriter(t *testing.T) {
	g := newGateWriter(nil)
	w := NewFrameWriter(g)
	first := make(chan error, 1)
	go func() {
		n, err := w.WriteFrame([]byte{0})
		if err == nil && n != 4 {
			err = fmt.Errorf("writer wrote %d frames, want 4", n)
		}
		first <- err
	}()
	<-g.entered
	for i := 1; i <= 3; i++ {
		if n, err := w.QueueFrame([]byte{byte(i)}); n != 0 || err != nil {
			t.Fatalf("QueueFrame %d: (%d, %v), want (0, nil)", i, n, err)
		}
	}
	if n, err := w.Flush(); n != 0 || err != nil {
		t.Fatalf("Flush behind a blocked writer: (%d, %v), want (0, nil)", n, err)
	}
	close(g.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if writes := g.state(); writes != 2 {
		t.Fatalf("%d writes, want 2: the blocked one and the queue", writes)
	}
	if got := readFrames(t, &g.buf); !bytes.Equal(got, []byte{0, 1, 2, 3}) {
		t.Fatalf("frames %v, want 0..3 in queue order", got)
	}
}

// A caller that alone flushes its queue cannot wait for a writer to
// take it: a QueueFrame that finds MaxWireFrame bytes queued and no
// writer writes them itself, then queues its own frame.
func TestFrameWriterQueueAtBoundWrites(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	payload := make([]byte, 1024)
	const frames = 3 * MaxWireFrame / 1024
	done := make(chan int, 1)
	go func() {
		written := 0
		for i := 0; i < frames; i++ {
			payload[0] = byte(i)
			n, err := w.QueueFrame(payload)
			if err != nil {
				t.Error(err)
			}
			written += n
		}
		done <- written
	}()
	var written int
	select {
	case written = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("QueueFrame at the bound with no writer is still blocked after 5 s")
	}
	if written == 0 || buf.Len() == 0 {
		t.Fatalf("%d frames queued past the bound and none written", frames)
	}
	n, err := w.Flush()
	if err != nil || written+n != frames {
		t.Fatalf("wrote %d at the bound and flushed (%d, %v), want %d in all", written, n, err, frames)
	}
	got := readFrames(t, &buf)
	if len(got) != frames {
		t.Fatalf("read back %d frames, want %d", len(got), frames)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("frame %d carries %d: out of queue order", i, b)
		}
	}
}

// A failed Flush counts the frames it lost, its queue and those queued
// behind it during the failed Write, and the failure is sticky: every
// later QueueFrame, Flush and WriteFrame returns it without a Write.
func TestFrameWriterFlushStickyError(t *testing.T) {
	boom := errors.New("boom")
	g := newGateWriter(boom)
	w := NewFrameWriter(g)
	for i := 0; i < 3; i++ {
		if _, err := w.QueueFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan int, 1)
	go func() {
		n, err := w.Flush()
		if !errors.Is(err, boom) {
			t.Errorf("failed Flush returned %v, want %v", err, boom)
		}
		flushed <- n
	}()
	<-g.entered
	for i := 3; i < 5; i++ {
		if n, err := w.QueueFrame([]byte{byte(i)}); n != 0 || err != nil {
			t.Fatalf("QueueFrame behind the failing Flush: (%d, %v), want (0, nil)", n, err)
		}
	}
	close(g.release)
	if n := <-flushed; n != 5 {
		t.Fatalf("failed Flush lost %d frames, want 5 (its three and the two queued behind)", n)
	}
	if n, err := w.QueueFrame([]byte{9}); n != 1 || !errors.Is(err, boom) {
		t.Fatalf("QueueFrame after the failure: (%d, %v), want (1, %v)", n, err, boom)
	}
	if n, err := w.Flush(); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("Flush after the failure: (%d, %v), want (0, %v)", n, err, boom)
	}
	if n, err := w.WriteFrame([]byte{9}); n != 1 || !errors.Is(err, boom) {
		t.Fatalf("WriteFrame after the failure: (%d, %v), want (1, %v)", n, err, boom)
	}
	if writes := g.state(); writes != 1 {
		t.Fatalf("%d writes after a failure, want 1", writes)
	}
}

// countingWriter counts Write calls and discards the bytes.
type countingWriter struct{ writes atomic.Int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return len(p), nil
}

// BenchmarkFrameWriter sends write-request frames through one writer
// from 1 and from 8 goroutines; an op is one frame. It reports Write
// calls per frame beside ns and allocations.
func BenchmarkFrameWriter(b *testing.B) {
	req := wireRequests()[len(wireRequests())-1]
	payload := req.AppendBinary(nil)
	for _, senders := range []int{1, 8} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			cw := &countingWriter{}
			w := NewFrameWriter(cw)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := s; i < b.N; i += senders {
						if _, err := w.WriteFrame(payload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(cw.writes.Load())/float64(b.N), "writes/frame")
		})
	}
}
