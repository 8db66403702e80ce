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
