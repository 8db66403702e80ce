package transport

import (
	"fmt"
	"sync"
	"time"
)

// HeartbeatConfig parameterizes the failure detector.
type HeartbeatConfig struct {
	// Procs is the number of processes (must match the transport).
	Procs int
	// Interval is the heartbeat period: every Interval each live
	// process probes every peer.
	Interval time.Duration
	// SuspectAfter is the silence threshold: an observer that has not
	// heard a peer for longer suspects it. 0 defaults to 4×Interval —
	// loose enough that jitter and a lost probe or two cause no false
	// suspicion, tight enough to report a crash within a few probes.
	SuspectAfter time.Duration
}

// Validate reports configuration errors.
func (c HeartbeatConfig) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("transport: HeartbeatConfig.Procs = %d", c.Procs)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("transport: HeartbeatConfig.Interval = %v", c.Interval)
	}
	if c.SuspectAfter < 0 {
		return fmt.Errorf("transport: HeartbeatConfig.SuspectAfter = %v", c.SuspectAfter)
	}
	return nil
}

// Detector is an eventually-perfect-style heartbeat failure detector
// over a Transport: every live process periodically probes every peer,
// and per-observer silence beyond SuspectAfter raises a suspicion
// (EvSuspect), cleared when the peer is heard again (EvAlive). The
// detector piggybacks on the normal transport, so everything that
// delays or drops frames — jitter, chaos loss, partitions — feeds
// suspicion, which is the point: what the detector reports is what the
// links let through. Its output is the Suspect/Alive event stream and
// the dsm_suspected_pairs gauge (SuspectedPairs).
//
// The engine tells the detector about orchestrated crash-stops via
// SetDown so a down process neither probes nor accuses anyone.
type Detector struct {
	cfg HeartbeatConfig
	tr  Transport
	obs Observer

	mu        sync.Mutex
	down      []bool        // ground truth from the engine (crash-stopped)
	lastHeard [][]time.Time // lastHeard[observer][peer]
	suspected [][]bool      // suspected[observer][peer]
	closed    bool

	stop chan struct{}
	done chan struct{}
}

// NewDetector builds a detector over tr. obs may be nil. Call Start to
// begin probing.
func NewDetector(tr Transport, cfg HeartbeatConfig, obs Observer) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 4 * cfg.Interval
	}
	d := &Detector{
		cfg:       cfg,
		tr:        tr,
		obs:       obs,
		down:      make([]bool, cfg.Procs),
		lastHeard: make([][]time.Time, cfg.Procs),
		suspected: make([][]bool, cfg.Procs),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	now := time.Now()
	for i := range d.lastHeard {
		d.lastHeard[i] = make([]time.Time, cfg.Procs)
		d.suspected[i] = make([]bool, cfg.Procs)
		for j := range d.lastHeard[i] {
			d.lastHeard[i][j] = now // grace period: nobody starts suspected
		}
	}
	return d, nil
}

// Start launches the probe/check loop.
func (d *Detector) Start() { go d.loop() }

func (d *Detector) loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		}
		d.mu.Lock()
		live := make([]bool, d.cfg.Procs)
		for i := range live {
			live[i] = !d.down[i]
		}
		d.mu.Unlock()
		// Probe outside the lock: a slow (FIFO, chaos-held) Send must
		// never stall Heard callbacks from delivery goroutines.
		for i := 0; i < d.cfg.Procs; i++ {
			if !live[i] {
				continue
			}
			for j := 0; j < d.cfg.Procs; j++ {
				if j != i {
					d.tr.Send(Message{From: i, To: j, Heartbeat: true})
				}
			}
		}
		d.check()
	}
}

// check raises suspicions for peers silent past the threshold.
func (d *Detector) check() {
	now := time.Now()
	var events []NetEvent
	d.mu.Lock()
	for obs := 0; obs < d.cfg.Procs; obs++ {
		if d.down[obs] {
			continue
		}
		for peer := 0; peer < d.cfg.Procs; peer++ {
			if peer == obs || d.suspected[obs][peer] {
				continue
			}
			if now.Sub(d.lastHeard[obs][peer]) > d.cfg.SuspectAfter {
				d.suspected[obs][peer] = true
				events = append(events, NetEvent{Kind: EvSuspect, From: peer, To: obs})
			}
		}
	}
	d.mu.Unlock()
	for _, e := range events {
		d.emit(e)
	}
}

// Heard records that observer received a heartbeat from peer, clearing
// any suspicion. Engines call it from their delivery handlers.
func (d *Detector) Heard(observer, peer int) {
	d.mu.Lock()
	d.lastHeard[observer][peer] = time.Now()
	wasSuspected := d.suspected[observer][peer]
	d.suspected[observer][peer] = false
	d.mu.Unlock()
	if wasSuspected {
		d.emit(NetEvent{Kind: EvAlive, From: peer, To: observer})
	}
}

// SetDown tells the detector process p crash-stopped (true) or
// restarted (false). A down process stops probing and accusing; a
// restarted one gets a fresh grace period toward every peer.
func (d *Detector) SetDown(p int, down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down[p] = down
	if !down {
		now := time.Now()
		for j := range d.lastHeard[p] {
			d.lastHeard[p][j] = now
			d.suspected[p][j] = false
		}
	}
}

// Suspects returns the peers currently suspected by observer, for
// tests and introspection.
func (d *Detector) Suspects(observer int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for p, s := range d.suspected[observer] {
		if s {
			out = append(out, p)
		}
	}
	return out
}

// SuspectedPairs returns the number of (observer, peer) pairs where a
// live observer currently suspects the peer — the scrape-time gauge
// the observability layer exposes as dsm_suspected_pairs (0 in a
// healthy cluster).
func (d *Detector) SuspectedPairs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for obs := 0; obs < d.cfg.Procs; obs++ {
		if d.down[obs] {
			continue
		}
		for peer, s := range d.suspected[obs] {
			if s && peer != obs {
				n++
			}
		}
	}
	return n
}

// Close stops probing. It does not close the underlying transport.
func (d *Detector) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.stop)
	<-d.done
	return nil
}

func (d *Detector) emit(e NetEvent) {
	if d.obs != nil {
		d.obs(e)
	}
}
