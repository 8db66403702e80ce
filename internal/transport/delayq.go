package transport

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// delayQueue is the package's one delay mechanism: frames wait in a
// min-heap ordered by due time, and one long-lived goroutine — the only
// owner of the queue's timer — sleeps until the earliest is due, pops
// every frame whose time has come and hands them to sink one by one,
// outside the heap lock. A push costs a heap insert and, only when the
// frame becomes the new earliest, a wake-up; no goroutine, stack or
// timer is created per frame.
//
// Frames due at the same instant leave in the order of a seeded random
// key, so a queue with no delay at all (every frame due at once) still
// reorders whatever is queued together. In fifo mode frames of one
// source are instead due strictly after their predecessor: link order
// is kept while the delays of successive frames overlap. A frame pushed
// with a hold (a fault-injected reorder burst) is the one exception.
//
// A frame counts as finished once sink has returned for it (or stop
// discarded it), which is what makes Flush sound: a queue that finished
// all it accepted is running no handler.
type delayQueue struct {
	sink     func(Message)
	min, max time.Duration
	epoch    time.Time     // due times are offsets from it
	wake     chan struct{} // cap 1: a push beat wakeAt, or stop
	done     chan struct{} // closed when run has returned

	mu      sync.Mutex
	rng     *rand.Rand
	heap    []timedFrame
	last    []time.Duration // fifo only: latest due time per source
	wakeAt  time.Duration   // when run next reads the heap unprompted; 0 while it is delivering
	stopped bool

	accepted, finished uint64
}

type timedFrame struct {
	due time.Duration
	key uint32
	m   Message
}

func (a *timedFrame) before(b *timedFrame) bool {
	return a.due < b.due || (a.due == b.due && a.key < b.key)
}

// newDelayQueue starts a queue delaying each frame by a uniform draw
// from [min, max]. sources > 0 selects fifo mode for that many senders.
func newDelayQueue(seed int64, min, max time.Duration, sources int, sink func(Message)) *delayQueue {
	q := &delayQueue{
		sink:  sink,
		min:   min,
		max:   max,
		epoch: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
	if sources > 0 {
		q.last = make([]time.Duration, sources)
	}
	go q.run()
	return q
}

// push queues m. It never blocks on delivery; the queue is unbounded.
// Once the queue is stopped it drops m.
func (q *delayQueue) push(m Message) { q.pushAfter(m, 0) }

// pushAfter is push with m held back an extra hold on top of its drawn
// delay. A held frame skips the fifo clamp and leaves it where it was,
// so the later frames of its source may overtake it: a reorder burst.
func (q *delayQueue) pushAfter(m Message, hold time.Duration) {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	q.accepted++
	// One draw serves both: its high bits break ties, its remainder over
	// the delay range (off uniform by range/2^63) is the jitter.
	r := uint64(q.rng.Int63())
	f := timedFrame{key: uint32(r >> 31), m: m}
	if q.max > 0 || hold > 0 {
		f.due = time.Since(q.epoch) + hold + q.min + time.Duration(r%uint64(q.max-q.min+1))
	}
	if q.last != nil && hold == 0 {
		if prev := q.last[m.From]; f.due <= prev {
			f.due = prev + 1
		}
		q.last[m.From] = f.due
	}
	h := append(q.heap, f)
	q.heap = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	early := f.due < q.wakeAt
	if early {
		q.wakeAt = f.due
	}
	q.mu.Unlock()
	if early {
		q.signal()
	}
}

func (q *delayQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop removes and returns the earliest frame's message.
func (q *delayQueue) pop() Message {
	h := q.heap
	m := h[0].m
	n := len(h) - 1
	h[0], h[n] = h[n], timedFrame{}
	q.heap = h[:n]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if least == i {
			return m
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// run is the queue's goroutine. A batch counts as finished when run
// next takes the lock, after its last handler has returned.
func (q *delayQueue) run() {
	defer close(q.done)
	timer := time.NewTimer(math.MaxInt64)
	defer timer.Stop()
	var batch []Message
	for {
		clear(batch)
		q.mu.Lock()
		q.finished += uint64(len(batch))
		batch = batch[:0]
		now := time.Since(q.epoch)
		for len(q.heap) > 0 && q.heap[0].due <= now {
			batch = append(batch, q.pop())
		}
		if len(batch) > 0 {
			q.wakeAt = 0
			q.mu.Unlock()
			for _, m := range batch {
				q.sink(m)
			}
			continue
		}
		if q.stopped {
			q.mu.Unlock()
			return
		}
		next := time.Duration(math.MaxInt64) // nothing queued: until a push says otherwise
		if len(q.heap) > 0 {
			next = q.heap[0].due
		}
		q.wakeAt = next
		q.mu.Unlock()
		timer.Reset(next - now)
		select {
		case <-timer.C:
		case <-q.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

// stop discards every frame still queued and returns once the goroutine
// has exited; a batch already popped is delivered first.
func (q *delayQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.finished += uint64(len(q.heap))
	q.heap = nil
	q.mu.Unlock()
	q.signal()
	<-q.done
}

// len returns the number of frames waiting for their due time.
func (q *delayQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

func (q *delayQueue) counts() (accepted, finished uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.accepted, q.finished
}
