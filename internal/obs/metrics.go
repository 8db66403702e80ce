// Package obs is the live observability layer of the runtime: a
// low-overhead metrics registry (atomic counters, gauges and
// fixed-bucket histograms — no locks on the hot path), causal
// propagation spans tracking each write from Write_co-stamped issue to
// apply at every replica, a streaming JSONL event sink, and the HTTP
// plumbing (/metrics in Prometheus text format, expvar, pprof) that
// makes a long chaos or crash run visible while it executes instead of
// only after Quiesce.
//
// The layer consumes the same trace.Event stream the post-hoc checkers
// audit, so every live counter is definitionally consistent with the
// numbers trace.Log reports at the end of the run — the integration
// tests assert exactly that.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are
// lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 samples (nanoseconds
// by convention). Observation is lock-free: one atomic add on the
// matching bucket plus the sum. The count is the buckets' total.
type Histogram struct {
	bounds  []int64 // inclusive upper bounds, strictly increasing
	buckets []atomic.Uint64
	sum     atomic.Int64
}

// DefaultLatencyBuckets spans 1µs to 10s — wide enough for both the
// immediate in-process transport (sub-millisecond propagation) and
// chaos runs with multi-second retransmission backoff.
var DefaultLatencyBuckets = []int64{
	1_000, 10_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000, 1_000_000_000, 10_000_000_000,
}

// NewHistogram builds a histogram with the given bucket upper bounds
// (nil means DefaultLatencyBuckets). Bounds must be strictly
// increasing; a final +Inf bucket is implicit.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	cp := make([]int64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, buckets: make([]atomic.Uint64, len(cp)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable, which beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed: the sum of the
// buckets, so it always equals the +Inf bucket of a Snapshot.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot returns the per-bucket cumulative counts aligned with
// Bounds() plus the +Inf bucket as the final element.
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the matching bucket. It returns 0 on an empty
// histogram; samples beyond the last bound clamp to it.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if float64(cum+n) >= rank && n > 0 {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // +Inf bucket: clamp
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name=value metric dimension.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{name, value} }

// labelKey renders labels canonically (sorted) for registry lookup and
// Prometheus exposition.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Name < cp[j].Name })
	var b strings.Builder
	for i, l := range cp {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	return b.String()
}

// metric is one registered series: a Counter, Gauge, Histogram, or a
// gauge callback evaluated at scrape time.
type metric struct {
	labels  string // canonical label string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// family groups every series of one metric name.
type family struct {
	name, help, typ string
	order           []string // insertion order of label keys
	series          map[string]*metric
}

// Registry holds metric families and renders them. Registration takes
// a lock; the returned Counter/Gauge/Histogram handles are lock-free,
// so callers register once at wiring time and hold the pointers on the
// hot path.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) fam(name, help, typ string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*metric)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	return f
}

func (f *family) get(labels []Label) (*metric, bool) {
	k := labelKey(labels)
	m, ok := f.series[k]
	if !ok {
		m = &metric{labels: k}
		f.series[k] = m
		f.order = append(f.order, k)
	}
	return m, ok
}

// Counter returns the counter for name+labels, creating it on first
// use. Re-registering returns the same instance.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.fam(name, help, "counter").get(labels)
	if !ok {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.fam(name, help, "gauge").get(labels)
	if !ok {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a callback gauge evaluated at scrape time — for
// quantities some other subsystem already tracks (un-acked frames in
// the reliability sublayer, suspected pairs in the failure detector).
// The callback must be safe to invoke from scrape goroutines.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.fam(name, help, "gauge").get(labels)
	m.fn = fn
}

// CounterFunc registers a callback counter evaluated at scrape time —
// the counter-typed sibling of GaugeFunc, for monotone totals some
// other subsystem already accumulates in its own atomics (bytes on the
// wire in the transport codec). The callback must be monotone and safe
// to invoke from scrape goroutines.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.fam(name, help, "counter").get(labels)
	m.fn = func() int64 { return int64(fn()) }
}

// Histogram returns the histogram for name+labels, creating it with
// the given bounds (nil = DefaultLatencyBuckets) on first use.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.fam(name, help, "histogram").get(labels)
	if !ok {
		m.hist = NewHistogram(bounds)
	}
	return m.hist
}
