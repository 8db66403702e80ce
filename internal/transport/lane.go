package transport

import "sync"

// lane is an immediate FIFO queue for one destination: senders append
// frames to a slice under a mutex, and one long-lived goroutine swaps
// out the whole backlog and hands it to sink frame by frame, outside
// the lock. A push wakes the goroutine only when it is idle. Frames
// leave in the order they arrived, so the frames of each source keep
// their send order without any per-source bookkeeping. It keeps Net's
// queue contract, like delayQueue.
//
// Frames are run by whoever holds the lane's runner role: the goroutine,
// or a runOrPush caller (Inline's SendAll) that found the lane idle
// and empty. One runner at a time takes frames in arrival order, so
// that order argument still holds.
type lane struct {
	sink func(Message)
	wake chan struct{} // cap 1: hands the runner role to the goroutine, or stop
	done chan struct{} // closed when run has returned

	mu                 sync.Mutex
	frames             []Message
	idle               bool // nobody holds the runner role; run is waiting on wake
	stopped            bool
	accepted, finished uint64
}

func newLane(sink func(Message)) *lane {
	l := &lane{
		sink: sink,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		idle: true,
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

// runOrPush runs m's handler on the caller's goroutine, holding the
// runner role, when the lane is idle and empty, and pushes m otherwise.
// Frames pushed meanwhile wake the goroutine when the handler returns.
func (l *lane) runOrPush(m Message) {
	l.mu.Lock()
	if !l.idle || l.stopped {
		l.mu.Unlock()
		l.push(m)
		return
	}
	l.idle = false
	l.accepted++
	l.mu.Unlock()
	l.sink(m)
	l.mu.Lock()
	l.finished++
	handoff := len(l.frames) > 0 || l.stopped
	l.idle = !handoff
	l.mu.Unlock()
	if handoff {
		l.signal()
	}
}

func (l *lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the lane's goroutine. It holds the runner role from a wake
// until it finds the lane empty. The two slices trade places on every
// batch, so a steady state allocates nothing. A batch counts as
// finished when run next takes the lock, after its last handler has
// returned.
func (l *lane) run() {
	defer close(l.done)
	var batch []Message
	<-l.wake
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

// stop wakes the goroutine only when nobody holds the runner role; a
// runOrPush caller hands it over once its handler returns.
func (l *lane) stop() {
	l.mu.Lock()
	l.stopped = true
	l.finished += uint64(len(l.frames))
	l.frames = nil
	idle := l.idle
	l.mu.Unlock()
	if idle {
		l.signal()
	}
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
