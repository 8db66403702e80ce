package main

import (
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is a median with its quartiles and sample count.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// summarize returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method: the
// k-th at rank k(n+1)/4, clamped to the sample), because that is what
// the driver computes a spread from. Zeros for an empty sample.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		s = append(s, 0)
		return summary{N: n, Q1: s[0], Med: s[0], Q3: s[0]}
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		frac := float64(k*(n+1)-4*j) / 4
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return summary{N: n, Q1: at(1), Med: at(2), Q3: at(3)}
}

func median(xs []float64) float64 { return summarize(xs).Med }

// latencies is a pooled sample of per-op durations in nanoseconds.
// int32 keeps two million samples at 8 MB; durations saturate at 2.1 s,
// four hundred times the SLO limit.
type latencies []int32

func clampNs(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	if d < 0 {
		return 0
	}
	return int32(d)
}

// percentilesUs sorts the pool in place and returns its p50 and p99 in
// microseconds.
func (l latencies) percentilesUs() (p50, p99 float64) {
	if len(l) == 0 {
		return 0, 0
	}
	slices.Sort(l)
	at := func(q float64) float64 { return float64(l[int(q*float64(len(l)-1))]) / 1e3 }
	return at(0.50), at(0.99)
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the resident set size right now. The cluster keeps its
// whole trace, so within a round memory only grows and the value at
// the end of a timed section is that round's peak.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
