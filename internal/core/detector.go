package core

import (
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// liveSummary is the Val of a liveness summary: an Apply-vector summary
// the detector sends to be heard, never answered (Node.handle). The
// restart summaries use 1 (answer with yours) and 0 (final answer).
const liveSummary = 2

// detector is the cluster's failure detector. With HeartbeatInterval
// set, one goroutine sends every live node's Apply-vector summary
// (Node.summaryLocked) to every peer once per interval; an observer
// that has heard no summary from a peer for longer than SuspectAfter
// suspects it (a Suspect trace event), and the next summary clears the
// suspicion (Alive). Every summary counts as heard, the restart ones
// included. Summaries ride the cluster's transport like any update, so
// whatever delays or drops frames feeds suspicion; under the chaos
// stack they ride Reliable, so a crashed sender's last unacked summary
// can still land, one retransmit horizon late at most (DESIGN §6).
type detector struct {
	c            *Cluster
	interval     time.Duration
	suspectAfter time.Duration

	mu        sync.Mutex
	lastHeard [][]time.Time // lastHeard[observer][peer]
	suspected [][]bool      // suspected[observer][peer]

	stop chan struct{}
	done chan struct{}
}

// startDetector installs and starts c.det; cfg.HeartbeatInterval > 0.
// c.det is set before the first summary goes out, so every handle that
// hears one sees it.
func (c *Cluster) startDetector() {
	d := &detector{
		c:            c,
		interval:     c.cfg.HeartbeatInterval,
		suspectAfter: c.cfg.SuspectAfter,
		lastHeard:    make([][]time.Time, c.cfg.Processes),
		suspected:    make([][]bool, c.cfg.Processes),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if d.suspectAfter == 0 {
		// Loose enough that jitter and a lost summary or two cause no
		// false suspicion, tight enough to report a crash within a few.
		d.suspectAfter = 4 * d.interval
	}
	for o := range d.lastHeard {
		d.lastHeard[o] = make([]time.Time, c.cfg.Processes)
		d.suspected[o] = make([]bool, c.cfg.Processes)
		d.reset(o)
	}
	c.det = d
	go d.loop()
}

func (d *detector) loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		}
		for _, n := range d.c.nodes {
			n.mu.Lock()
			if n.down.Load() {
				n.mu.Unlock()
				continue
			}
			sum := n.summaryLocked(liveSummary)
			n.mu.Unlock()
			// Send outside the node lock, like every other send.
			transport.Broadcast(d.c.tr, d.c.cfg.Processes, n.id, sum)
		}
		d.check()
	}
}

// check suspects the peers a live observer has not heard from for
// longer than suspectAfter. Events are traced outside d.mu, since
// appendEvent calls into the configured observer and sink.
func (d *detector) check() {
	now := time.Now()
	var raised [][2]int // (observer, peer)
	d.mu.Lock()
	for o, row := range d.lastHeard {
		if d.c.nodes[o].down.Load() {
			continue
		}
		for p, t := range row {
			if p != o && !d.suspected[o][p] && now.Sub(t) > d.suspectAfter {
				d.suspected[o][p] = true
				raised = append(raised, [2]int{o, p})
			}
		}
	}
	d.mu.Unlock()
	for _, r := range raised {
		d.c.appendEvent(trace.Event{Kind: trace.Suspect, Proc: r[0], Time: d.c.now(), Val: int64(r[1])})
	}
}

// heard records a summary from peer at observer, clearing any
// suspicion.
func (d *detector) heard(observer, peer int) {
	d.mu.Lock()
	d.lastHeard[observer][peer] = time.Now()
	cleared := d.suspected[observer][peer]
	d.suspected[observer][peer] = false
	d.mu.Unlock()
	if cleared {
		d.c.appendEvent(trace.Event{Kind: trace.Alive, Proc: observer, Time: d.c.now(), Val: int64(peer)})
	}
}

// reset gives observer a fresh grace period toward every peer: at start
// and when it restarts.
func (d *detector) reset(observer int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	for p := range d.lastHeard[observer] {
		d.lastHeard[observer][p] = now
		d.suspected[observer][p] = false
	}
}

// suspects returns the peers observer currently suspects; a down
// observer suspects nobody.
func (d *detector) suspects(observer int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c.nodes[observer].down.Load() {
		return nil
	}
	var out []int
	for p, s := range d.suspected[observer] {
		if s {
			out = append(out, p)
		}
	}
	return out
}

// suspectedPairs counts the (observer, peer) pairs a live observer
// suspects: the dsm_suspected_pairs gauge, 0 in a healthy cluster.
func (d *detector) suspectedPairs() int {
	n := 0
	for o := range d.suspected {
		n += len(d.suspects(o))
	}
	return n
}

// close stops the summary loop.
func (d *detector) close() {
	close(d.stop)
	<-d.done
}
