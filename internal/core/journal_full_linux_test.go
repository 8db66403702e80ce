package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
)

// fillDisk makes every later write to the journal segments open under
// dir fail with ENOSPC, by putting /dev/full behind their descriptors.
// The cluster must be quiescent: a rotation in flight would open a
// segment this misses.
func fillDisk(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	swapped := 0
	for _, de := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", de.Name()))
		if err != nil || !strings.HasPrefix(target, dir+string(filepath.Separator)) {
			continue
		}
		fd, err := strconv.Atoi(de.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		swapped++
	}
	if swapped == 0 {
		t.Fatalf("no open journal segment under %s", dir)
	}
}

// bufferedJournalCluster returns a 3-process cluster whose journals
// hold acknowledged records that have not reached their files: far
// fewer than a buffer's worth, no fsync.
func bufferedJournalCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Processes: 3, Variables: 2, Seed: 3, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i := 0; i < 10; i++ {
		if err := c.Node(i%3).Write(i%2, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCrashReportsUnwrittenJournal: Write returned nil for records that
// were only buffered. When the disk is full by the time Crash writes
// them out, the loss must not pass silently: Crash says so, and Restart
// refuses to bring the process back from a journal that is missing
// writes its peers have already applied.
func TestCrashReportsUnwrittenJournal(t *testing.T) {
	c := bufferedJournalCluster(t)
	fillDisk(t, c.walPath(1))
	err := c.Crash(1)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Crash = %v, want ENOSPC from the journal's final write", err)
	}
	if !c.Down(1) {
		t.Fatal("p2 still up after Crash reported the journal error")
	}
	if _, err := c.Restart(1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Restart = %v, want the crash-time journal error", err)
	}
	if !c.Down(1) {
		t.Fatal("p2 restarted from an incomplete journal")
	}
}

// TestCloseReportsUnwrittenJournal is the same loss at Cluster.Close.
func TestCloseReportsUnwrittenJournal(t *testing.T) {
	c := bufferedJournalCluster(t)
	fillDisk(t, c.walPath(2))
	err := c.Close()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close = %v, want ENOSPC from p3's journal", err)
	}
	if !strings.Contains(err.Error(), "p3 journal") {
		t.Fatalf("Close = %v, does not name the journal that failed", err)
	}
}

// TestJournalFailureFailStops: a process that cannot journal an update
// must not go on applying updates it will not remember. The failing
// append crash-stops it — nothing is applied there from then on,
// Quiesce leaves it out, its own operations return ErrDown — and the
// journal's error comes back from Restart and Close.
func TestJournalFailureFailStops(t *testing.T) {
	c, err := NewCluster(Config{Processes: 3, Variables: 2, Seed: 3, WALDir: t.TempDir(), WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // a no-op once the test has closed it
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Node(0).Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	before := len(c.Log().Events)
	fillDisk(t, c.walPath(1))
	// p2's journal fails on the first of these it receives.
	for i := 0; i < 5; i++ {
		if err := c.Node(0).Write(i%2, int64(10+i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Node(2).Write(i%2, int64(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce with p2 fail-stopped: %v", err)
	}
	if !c.Down(1) {
		t.Fatal("p2 still up after its journal failed")
	}
	crashes := 0
	for _, e := range c.Log().Events[before:] {
		if e.Proc != 1 {
			continue
		}
		switch e.Kind {
		case trace.Crash:
			crashes++
		case trace.Apply:
			t.Fatalf("p2 applied %v after its journal was full", e.Write)
		}
	}
	if crashes != 1 {
		t.Fatalf("%d crash events at p2, want 1", crashes)
	}
	if err := c.Node(1).Write(0, 99); !errors.Is(err, ErrDown) {
		t.Fatalf("Write at the fail-stopped p2 = %v, want ErrDown", err)
	}
	if _, err := c.Node(1).Read(0); !errors.Is(err, ErrDown) {
		t.Fatalf("Read at the fail-stopped p2 = %v, want ErrDown", err)
	}
	if err := c.Crash(1); !errors.Is(err, ErrDown) {
		t.Fatalf("Crash of the fail-stopped p2 = %v, want ErrDown", err)
	}
	if _, err := c.Restart(1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Restart = %v, want the journal's ENOSPC", err)
	}

	// The same on the local-write path: the write that cannot be
	// journaled fails, is never issued, and stops its process.
	fillDisk(t, c.walPath(2))
	issued := len(c.Log().Events)
	err = c.Node(2).Write(0, 7)
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrDown) {
		t.Fatalf("Write over a full journal = %v, want ENOSPC and ErrDown", err)
	}
	for _, e := range c.Log().Events[issued:] {
		if e.Proc == 2 && e.Kind != trace.Crash {
			t.Fatalf("p3 traced %v for a write it could not journal", e.Kind)
		}
	}
	if !c.Down(2) {
		t.Fatal("p3 still up after its journal failed")
	}
	err = c.Close()
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "p2 journal") || !strings.Contains(err.Error(), "p3 journal") {
		t.Fatalf("Close = %v, want both failed journals named", err)
	}
}
