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
