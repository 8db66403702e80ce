package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	c.Add(5)
	if got := c.Value(); got != 8005 {
		t.Errorf("counter after Add(5) = %d, want 8005", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("gauge after Set(-3) = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5622 {
		t.Errorf("sum = %d, want 5622", got)
	}
	// Bounds are inclusive: 10 lands in the first bucket, 11 in the
	// second; 5000 overflows into +Inf. Snapshot is cumulative.
	want := []uint64{2, 4, 5, 6}
	got := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 300})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(int64(i*3 + 1)) // 1..298, uniform-ish over first three buckets
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 200 {
		t.Errorf("p50 = %d, want within (100, 200]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 200 || p99 > 300 {
		t.Errorf("p99 = %d, want within (200, 300]", p99)
	}
	// Overflow samples clamp to the last bound.
	h2 := NewHistogram([]int64{10})
	h2.Observe(1_000_000)
	if got := h2.Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %d, want clamp to 10", got)
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	a := labelKey([]Label{L("proc", "0"), L("protocol", "optp")})
	b := labelKey([]Label{L("protocol", "optp"), L("proc", "0")})
	if a != b {
		t.Errorf("label order changed the key: %q vs %q", a, b)
	}
	if labelKey(nil) != "" {
		t.Errorf("empty labels should render empty")
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", L("p", "1"))
	c2 := r.Counter("x_total", "other help ignored", L("p", "1"))
	if c1 != c2 {
		t.Errorf("re-registering the same series returned a different counter")
	}
	c3 := r.Counter("x_total", "help", L("p", "2"))
	if c1 == c3 {
		t.Errorf("different labels returned the same counter")
	}
	h1 := r.Histogram("h_ns", "help", []int64{1, 2})
	h2 := r.Histogram("h_ns", "help", []int64{1, 2})
	if h1 != h2 {
		t.Errorf("re-registering the same histogram returned a different instance")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter", L("proc", "0")).Add(7)
	r.Gauge("b_now", "a gauge").Set(-2)
	r.GaugeFunc("c_now", "a callback gauge", func() int64 { return 42 })
	h := r.Histogram("d_ns", "a histogram", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total a counter",
		"# TYPE a_total counter",
		`a_total{proc="0"} 7`,
		"b_now -2",
		"c_now 42",
		`d_ns_bucket{le="10"} 1`,
		`d_ns_bucket{le="100"} 2`,
		`d_ns_bucket{le="+Inf"} 3`,
		"d_ns_sum 5055",
		"d_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJoinLabelsSorted(t *testing.T) {
	got := joinLabels(`proc="0",protocol="optp"`, L("le", "10"))
	want := `le="10",proc="0",protocol="optp"`
	if got != want {
		t.Errorf("joinLabels = %q, want %q", got, want)
	}
	if got := joinLabels("", L("le", "+Inf")); got != `le="+Inf"` {
		t.Errorf("joinLabels on empty = %q", got)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pe_total", "x").Inc()
	// A second publish under the same name must be a silent no-op, not
	// the panic expvar.Publish raises on duplicates.
	r.PublishExpvar("dsm_test_pe")
	NewRegistry().PublishExpvar("dsm_test_pe")
}

// A scrape's _count is its +Inf bucket, even while samples land.
func TestHistogramScrapeCountIsInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ns", "h", []int64{10})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(5)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, l := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(l, `h_ns_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(l, "h_ns_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("scrape %d: +Inf bucket %q, _count %q", i, inf, count)
		}
	}
}
