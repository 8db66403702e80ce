package transport

import "sync"

// lane is an immediate FIFO queue for one destination: senders append
// frames to a slice under a mutex, and one long-lived goroutine swaps
// out the whole backlog and hands it to sink frame by frame, outside
// the lock. A push wakes the goroutine only when it is idle. Frames
// leave in the order they arrived, so the frames of each source keep
// their send order without any per-source bookkeeping. It keeps Net's
// queue contract, like delayQueue.
type lane struct {
	sink func(Message)
	wake chan struct{} // cap 1: a push found the goroutine idle, or stop
	done chan struct{} // closed when run has returned

	mu                 sync.Mutex
	frames             []Message
	idle               bool // run is waiting on wake
	stopped            bool
	accepted, finished uint64
}

func newLane(sink func(Message)) *lane {
	l := &lane{
		sink: sink,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

func (l *lane) push(m Message) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.frames = append(l.frames, m)
	l.accepted++
	idle := l.idle
	l.idle = false
	l.mu.Unlock()
	if idle {
		l.signal()
	}
}

func (l *lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the lane's goroutine. The two slices trade places on every
// batch, so a steady state allocates nothing. A batch counts as
// finished when run next takes the lock, after its last handler has
// returned.
func (l *lane) run() {
	defer close(l.done)
	var batch []Message
	for {
		clear(batch)
		l.mu.Lock()
		l.finished += uint64(len(batch))
		batch = batch[:0]
		if l.stopped {
			l.mu.Unlock()
			return
		}
		if len(l.frames) == 0 {
			l.idle = true
			l.mu.Unlock()
			<-l.wake
			continue
		}
		batch, l.frames = l.frames, batch
		l.mu.Unlock()
		for _, m := range batch {
			l.sink(m)
		}
	}
}

func (l *lane) stop() {
	l.mu.Lock()
	l.stopped = true
	l.finished += uint64(len(l.frames))
	l.frames = nil
	l.mu.Unlock()
	l.signal()
	<-l.done
}

func (l *lane) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

func (l *lane) counts() (accepted, finished uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted, l.finished
}
