package core

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/protocol"
	"repro/internal/trace"
)

// TestAccountingEqualsTrace: after Quiesce, the writes every process
// sent toward q and the writes q counted as applied both equal the
// Apply events of writes at q in the log — for every live kind, for
// partial replication on r = 2 share-sets, and across a crash and a
// restart, whose catch-up applies count like any other.
func TestAccountingEqualsTrace(t *testing.T) {
	type run struct {
		name   string
		kind   protocol.Kind
		shares [][]int
		crash  bool
	}
	var runs []run
	for _, kind := range LiveKinds() {
		runs = append(runs, run{name: kind.String(), kind: kind})
	}
	runs = append(runs,
		run{name: "PartialRep-r2", kind: protocol.PartialRep, shares: protocol.Modulo(3, 4, 2).Raw()},
		run{name: "OptP-crash-restart", kind: protocol.OptP, crash: true},
	)
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			cfg := Config{
				Processes: 4, Variables: 3, Protocol: r.kind, ShareSets: r.shares,
				MaxDelay: 300 * time.Microsecond, Seed: 31,
			}
			if r.crash {
				cfg.WALDir = t.TempDir()
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			all := []int{0, 1, 2, 3}
			crashWorkload(t, c, all, 40, 7)
			if r.crash {
				const victim = 2
				if err := c.Crash(victim); err != nil {
					t.Fatal(err)
				}
				crashWorkload(t, c, []int{0, 1, 3}, 40, 8)
				if _, err := c.Restart(victim); err != nil {
					t.Fatal(err)
				}
				crashWorkload(t, c, all, 40, 9)
			}
			quiesce(t, c)
			applies := make([]uint64, c.Processes())
			for _, e := range c.Log().Events {
				if e.Kind == trace.Apply && e.Write.Seq > 0 {
					applies[e.Proc]++
				}
			}
			for q, want := range applies {
				if want == 0 {
					t.Errorf("p%d applied no write: the run exercised nothing", q+1)
				}
				var sent uint64
				for _, row := range c.acct.rows {
					sent += row[rowSent+q].Load()
				}
				if applied := c.acct.rows[q][rowApplied].Load(); sent != want || applied != want {
					t.Errorf("p%d: %d writes sent toward it, %d applied, %d Apply events in the log", q+1, sent, applied, want)
				}
			}
		})
	}
}

// TestQuiesceCollectsTwice: a token passes around a ring from process k
// to k−1, each holder sending it on before counting its own apply, so
// at every instant one write is in flight and the cluster is never
// quiescent. A collect reads the counters one after another while the
// token runs against it, so a poll that trusted one collect would
// sometimes find nothing in flight; quiet must not report quiescence
// before the last apply, and must report it at once after the token
// stops.
func TestQuiesceCollectsTwice(t *testing.T) {
	const procs, hops = 8, 20000
	a := newQuiesceAcct(procs)
	inbox := make([]chan int, procs)
	for p := range inbox {
		inbox[p] = make(chan int, 1)
	}
	var last atomic.Bool // set just before the last apply
	stopped := make(chan struct{})
	for p := range inbox {
		p := p
		go func() {
			for left := range inbox[p] {
				next := (p + procs - 1) % procs
				if left == 0 {
					last.Store(true)
					a.inc(p, rowApplied)
					close(stopped)
					return
				}
				a.inc(p, rowSent+next) // only p's goroutine writes row p
				a.inc(p, rowApplied)
				inbox[next] <- left - 1
			}
		}()
	}
	a.inc(0, rowSent+procs-1) // row 0's goroutine writes only once the token reaches it
	inbox[procs-1] <- hops
	poll := a.poll()
	for !poll.quiet() {
	}
	if !last.Load() {
		t.Fatal("quiet with a write in flight")
	}
	<-stopped
	poll.quiet()
	if !poll.quiet() {
		t.Fatal("two collects after the token stopped: not quiet")
	}
	for _, ch := range inbox {
		close(ch)
	}
}

// TestAccountingLayout: every accounting row starts on its own cache
// line, and no counter written on the message path shares a line with
// the Cluster fields every event reads.
func TestAccountingLayout(t *testing.T) {
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / cacheLine }
	for _, procs := range []int{1, 3, 6, 8, 9} {
		a := newQuiesceAcct(procs)
		for p, row := range a.rows {
			start := uintptr(unsafe.Pointer(&row[0]))
			if start%cacheLine != 0 {
				t.Errorf("P = %d: row %d starts %d bytes into a cache line", procs, p, start%cacheLine)
			}
			if p == 0 {
				continue
			}
			prev := a.rows[p-1]
			if end := uintptr(unsafe.Pointer(&prev[len(prev)-1])) + unsafe.Sizeof(prev[0]); start < end || start-uintptr(unsafe.Pointer(&prev[0])) < cacheLine {
				t.Errorf("P = %d: row %d starts %d bytes after row %d", procs, p, start-uintptr(unsafe.Pointer(&prev[0])), p-1)
			}
		}
	}

	c, err := NewCluster(Config{Processes: 8, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	read := map[string]unsafe.Pointer{"tee": unsafe.Pointer(&c.tee), "journal": unsafe.Pointer(&c.journal)}
	for _, row := range c.acct.rows {
		for i := range row {
			for name, f := range read {
				if line(unsafe.Pointer(&row[i])) == line(f) {
					t.Errorf("an accounting counter shares a cache line with Cluster.%s", name)
				}
			}
		}
	}
	// The Cluster's own written fields sit a whole line past the read
	// ones, wherever the allocation starts.
	readEnd := max(unsafe.Offsetof(c.tee)+unsafe.Sizeof(c.tee), unsafe.Offsetof(c.journal)+unsafe.Sizeof(c.journal))
	for name, off := range map[string]uintptr{"obsMu": unsafe.Offsetof(c.obsMu), "mu": unsafe.Offsetof(c.mu)} {
		if off < readEnd+cacheLine {
			t.Errorf("Cluster.%s starts %d bytes after the fields every event reads, want at least %d", name, off-readEnd, cacheLine)
		}
	}
}
