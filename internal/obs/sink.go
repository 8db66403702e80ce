package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// DefaultCapacity is the capacity a Stream or a Ring gets when asked
// for none: 8192 values. A Stream allocates its queue up front; a Ring
// grows by append, so it costs memory only as values are retained.
const DefaultCapacity = 8192

// Stream writes values as JSON Lines while a run executes — trace
// events (NewJSONLSink), tail-sampled request records, spans. Record
// never blocks the caller: values queue in a bounded ring (a buffered
// channel) drained by a background goroutine, and when the consumer
// cannot keep up the overflow is counted and dropped instead of
// stalling the producer.
type Stream[T any] struct {
	ch      chan T
	dropped atomic.Uint64
	doc     func(T) any

	mu   sync.Mutex
	bw   *bufio.Writer
	enc  *json.Encoder
	werr error

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// JSONLSink streams trace events, one trace.JSONEvent document per
// line — the schema Log.WriteJSON uses post-hoc.
type JSONLSink = Stream[trace.Event]

var _ trace.Sink = (*JSONLSink)(nil)

// NewJSONLSink starts a trace-event stream writing to w; see NewStream.
func NewJSONLSink(w io.Writer, capacity int) *JSONLSink {
	return NewStream(w, capacity, func(e trace.Event) any { return trace.ToJSONEvent(e) })
}

// NewStream starts a stream writing to w. capacity bounds the ring (0
// defaults to DefaultCapacity). doc maps a value to the JSON document
// of its line; nil writes the value itself. Close flushes and stops the
// drainer; the stream does not close w.
func NewStream[T any](w io.Writer, capacity int, doc func(T) any) *Stream[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Stream[T]{
		ch:   make(chan T, capacity),
		doc:  doc,
		bw:   bufio.NewWriter(w),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.enc = json.NewEncoder(s.bw)
	go s.drain()
	return s
}

// Record enqueues v without blocking, counting a drop on overflow.
// Values recorded after Close count as drops.
func (s *Stream[T]) Record(v T) {
	select {
	case s.ch <- v:
	default:
		s.dropped.Add(1)
	}
}

// Dropped returns the number of values lost to ring overflow.
func (s *Stream[T]) Dropped() uint64 { return s.dropped.Load() }

// Err returns the first write error, if any.
func (s *Stream[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

// RegisterMetrics exposes the stream's drop counter on a registry.
func (s *Stream[T]) RegisterMetrics(reg *Registry, labels ...Label) {
	reg.GaugeFunc("dsm_sink_dropped_total",
		"values dropped by a streaming sink's bounded ring",
		func() int64 { return int64(s.Dropped()) }, labels...)
}

func (s *Stream[T]) encode(v T) {
	s.mu.Lock()
	if s.werr == nil {
		if s.doc != nil {
			s.werr = s.enc.Encode(s.doc(v))
		} else {
			s.werr = s.enc.Encode(v)
		}
	}
	s.mu.Unlock()
}

func (s *Stream[T]) drain() {
	defer close(s.done)
	for {
		select {
		case v := <-s.ch:
			s.encode(v)
		case <-s.stop:
			// Drain whatever is already queued, then flush and exit.
			for {
				select {
				case v := <-s.ch:
					s.encode(v)
				default:
					s.mu.Lock()
					if err := s.bw.Flush(); s.werr == nil {
						s.werr = err
					}
					s.mu.Unlock()
					return
				}
			}
		}
	}
}

// Close drains queued values, flushes, stops the drainer, and returns
// the first write error. Idempotent; Record stays safe (and counts
// drops) after Close.
func (s *Stream[T]) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
	return s.Err()
}

// Ring keeps the newest values pushed into it, overwriting the oldest
// once full. It takes no lock: its owner guards it with its own.
type Ring[T any] struct {
	buf   []T
	cap   int
	next  int // next write position once full
	total uint64
}

// NewRing returns a ring of capacity values (0 defaults to
// DefaultCapacity).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return Ring[T]{cap: capacity}
}

// Push adds v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % r.cap
	}
	r.total++
}

// Values returns a copy of the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many values were ever pushed, retained or not.
func (r *Ring[T]) Total() uint64 { return r.total }
