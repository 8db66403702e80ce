package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// scrape GETs path from the debug server and returns the body.
func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// parseProm parses a Prometheus text exposition into series -> value.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valS, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(valS, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// sumFamily sums every series of one metric family.
func sumFamily(series map[string]float64, family string) float64 {
	total := 0.0
	for name, v := range series {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}

// runWorkload drives the dsmrun-style seeded random workload.
func runWorkload(t *testing.T, c *core.Cluster, procs, vars, ops int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			for i := 1; i <= ops; i++ {
				if rng.Float64() < 0.6 {
					if err := c.Node(p).Write(rng.Intn(vars), int64(p)*1_000_000+int64(i)); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Node(p).Read(rng.Intn(vars)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMetricsMatchPostHocStats is the acceptance test of the
// observability layer: a live seeded run is scraped over HTTP, and the
// scraped totals must equal — exactly, not approximately — what the
// post-hoc trace.Log computes for the same run, because both views
// derive from the same serialized event stream.
func TestLiveMetricsMatchPostHocStats(t *testing.T) {
	const (
		procs = 3
		vars  = 4
		ops   = 60
		seed  = 7
	)
	observer := obs.NewObserver(obs.Options{Procs: procs, Protocol: "OptP"})
	var streamed bytes.Buffer
	sink := obs.NewJSONLSink(&streamed, 1<<15)
	srv, err := obs.StartDebugServer("127.0.0.1:0", observer.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := core.NewCluster(core.Config{
		Processes: procs, Variables: vars, Protocol: protocol.OptP,
		MaxDelay: 500 * time.Microsecond, FIFO: true, Seed: seed,
		Obs: observer, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Scrape mid-run: the point of the layer is that /metrics answers
	// while the cluster is under load, not only after quiesce.
	stopProbe := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-stopProbe:
				return
			default:
			}
			if code, _ := scrape(t, srv.Addr(), "/metrics"); code != http.StatusOK {
				t.Errorf("mid-run /metrics status %d", code)
				return
			}
		}
	}()
	runWorkload(t, c, procs, vars, ops, seed)
	close(stopProbe)
	<-probeDone

	code, body := scrape(t, srv.Addr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	series := parseProm(t, body)
	log := c.Log()

	if got, want := sumFamily(series, "dsm_writes_total"), float64(log.WritesIssued()); got != want {
		t.Errorf("dsm_writes_total = %v, post-hoc WritesIssued = %v", got, want)
	}
	if got, want := sumFamily(series, "dsm_receipts_total"), float64(log.ReceiptCount()); got != want {
		t.Errorf("dsm_receipts_total = %v, post-hoc ReceiptCount = %v", got, want)
	}
	if got, want := sumFamily(series, "dsm_delays_total"), float64(log.DelayCount()); got != want {
		t.Errorf("dsm_delays_total = %v, post-hoc DelayCount = %v", got, want)
	}
	if got, want := sumFamily(series, "dsm_reads_total"), float64(log.ReadsReturned()); got != want {
		t.Errorf("dsm_reads_total = %v, post-hoc ReadsReturned = %v", got, want)
	}

	vis := log.VisibilityLatencies()
	var visSum int64
	for _, v := range vis {
		visSum += v
	}
	if got, want := sumFamily(series, "dsm_propagation_ns_count"), float64(len(vis)); got != want {
		t.Errorf("dsm_propagation_ns_count = %v, post-hoc len(VisibilityLatencies) = %v", got, want)
	}
	if got, want := sumFamily(series, "dsm_propagation_ns_sum"), float64(visSum); got != want {
		t.Errorf("dsm_propagation_ns_sum = %v, post-hoc sum(VisibilityLatencies) = %v", got, want)
	}
	if got, want := observer.SpanTotal(), uint64(len(vis)); got != want {
		t.Errorf("SpanTotal = %d, want %d", got, want)
	}

	// The streaming sink saw the identical event stream.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sink.Dropped(); n != 0 {
		t.Fatalf("sink dropped %d events", n)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(streamed.Bytes()))
	for sc.Scan() {
		var je trace.JSONEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		lines++
	}
	if lines != len(log.Events) {
		t.Errorf("streamed %d events, log has %d", lines, len(log.Events))
	}

	// Debug endpoints answer.
	if code, body := scrape(t, srv.Addr(), "/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status %d", code)
	} else {
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &vars); err != nil {
			t.Errorf("/debug/vars not JSON: %v", err)
		} else if _, ok := vars["dsm"]; !ok {
			t.Errorf("/debug/vars missing the dsm registry")
		}
	}
	if code, body := scrape(t, srv.Addr(), "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// TestChaosGaugesScrape covers the scrape-time gauges the cluster
// registers (un-acked frames, dedup window, suspected pairs):
// a chaos + heartbeat run must expose them, and concurrent scraping
// during the run must be race-free (this test matters under -race).
func TestChaosGaugesScrape(t *testing.T) {
	const (
		procs = 3
		vars  = 2
		ops   = 30
		seed  = 11
	)
	observer := obs.NewObserver(obs.Options{Procs: procs, Protocol: "OptP"})
	srv, err := obs.StartDebugServer("127.0.0.1:0", observer.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := core.NewCluster(core.Config{
		Processes: procs, Variables: vars, Protocol: protocol.OptP,
		MaxDelay: 200 * time.Microsecond, Seed: seed, Obs: observer,
		Chaos:             transport.ChaosConfig{LossRate: 0.1, DupRate: 0.1, Seed: seed},
		HeartbeatInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runWorkload(t, c, procs, vars, ops, seed)

	_, body := scrape(t, srv.Addr(), "/metrics")
	series := parseProm(t, body)
	for _, family := range []string{"dsm_unacked_frames", "dsm_dedup_window", "dsm_suspected_pairs"} {
		found := false
		for name := range series {
			if strings.HasPrefix(name, family) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape missing %s:\n%s", family, body)
		}
	}
	// The counters match the trace exactly only once nothing moves: on
	// the live cluster a retransmit can land between scrape and log.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, body = scrape(t, srv.Addr(), "/metrics")
	series = parseProm(t, body)
	log := c.Log()
	if got, want := sumFamily(series, "dsm_net_drops_total"), float64(log.NetDropCount()); got != want {
		t.Errorf("dsm_net_drops_total = %v, post-hoc NetDropCount = %v", got, want)
	}
	if got, want := sumFamily(series, "dsm_retransmits_total"), float64(log.RetransmitCount()); got != want {
		t.Errorf("dsm_retransmits_total = %v, post-hoc RetransmitCount = %v", got, want)
	}
}

// TestWALFsyncHistogram checks the durability hook end to end: a
// WAL-sync run must land fsync samples in dsm_wal_fsync_ns.
func TestWALFsyncHistogram(t *testing.T) {
	observer := obs.NewObserver(obs.Options{Procs: 2, Protocol: "OptP"})
	c, err := core.NewCluster(core.Config{
		Processes: 2, Variables: 2, Protocol: protocol.OptP,
		WALDir: t.TempDir(), WALSync: true, Obs: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runWorkload(t, c, 2, 2, 10, 3)

	var buf bytes.Buffer
	if err := observer.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parseProm(t, buf.String())
	if got := sumFamily(series, "dsm_wal_fsync_ns_count"); got == 0 {
		t.Errorf("no WAL fsync samples recorded:\n%s", buf.String())
	}
}

// BenchmarkOptPWritePath measures the live OptP write→apply pipeline
// with the observability layer off and on — the acceptance bar is
// that obs adds <10%. Compare with:
//
//	go test -bench OptPWritePath -count 5 ./internal/obs/
func BenchmarkOptPWritePath(b *testing.B) {
	for _, mode := range []struct {
		name    string
		withObs bool
	}{{"obs-off", false}, {"obs-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const vars = 4
			cfg := core.Config{Processes: 2, Variables: vars, Protocol: protocol.OptP, FIFO: true}
			if mode.withObs {
				cfg.Obs = obs.NewObserver(obs.Options{Procs: 2, Protocol: "OptP"})
			}
			c, err := core.NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Node(0).Write(i%vars, int64(i)); err != nil {
					b.Fatal(err)
				}
				if i%256 == 255 {
					if err := c.Quiesce(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := c.Quiesce(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkObserve pins the per-event cost of the observer itself: a
// full issue→receipt→apply span cycle across the replicas.
func BenchmarkObserve(b *testing.B) {
	const procs = 4
	o := obs.NewObserver(obs.Options{Procs: procs, Protocol: "OptP"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := trace.Event{Kind: trace.Issue, Proc: 0, Time: int64(i)}
		e.Write.Proc, e.Write.Seq = 0, i
		o.Observe(e)
		for p := 1; p < procs; p++ {
			e.Kind, e.Proc = trace.Receipt, p
			o.Observe(e)
			e.Kind = trace.Apply
			o.Observe(e)
		}
	}
}
