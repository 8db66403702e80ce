// Command dsmtrace analyzes the tail-sampled request records the
// serving tier emits (dsmd -trace-stream, client.Config.TraceSink,
// reqtrace.SinkWriter): JSONL in, forensics out. It answers
// the three questions a p99 regression raises — where does time go
// per stage, which stage puts a request on its critical path, and
// what exactly happened to the slowest calls — and joins client and
// server records of the same call by trace ID, attributing the gap
// between them to the network.
//
// Usage:
//
//	dsmtrace traces.jsonl                 # full report
//	dsmtrace -top 5 server.jsonl client.jsonl
//	dsmd -trace-stream - 2>&1 | dsmtrace  # straight off a daemon
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs/reqtrace"
)

func main() {
	top := flag.Int("top", 10, "how many slowest requests to detail")
	flag.Parse()

	var recs []reqtrace.Record
	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	for _, path := range paths {
		rd := io.Reader(os.Stdin)
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			rd = f
		}
		rs, err := reqtrace.ReadRecords(rd)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		recs = append(recs, rs...)
	}
	if err := report(os.Stdout, recs, *top); err != nil {
		fatal(err)
	}
}

// report renders the full analysis of recs.
func report(w io.Writer, recs []reqtrace.Record, top int) error {
	if len(recs) == 0 {
		_, err := fmt.Fprintln(w, "dsmtrace: no records")
		return err
	}
	overview(w, recs)
	stageBreakdown(w, recs)
	criticalPath(w, recs)
	slowest(w, recs, top)
	joins(w, recs)
	return nil
}

// overview counts records by origin and by outcome.
func overview(w io.Writer, recs []reqtrace.Record) {
	origins := map[string]int{}
	statuses := map[string]int{}
	kinds := map[string]int{}
	for _, r := range recs {
		origins[r.Origin]++
		statuses[r.Status]++
		kinds[r.Kind]++
	}
	fmt.Fprintf(w, "records: %d  (%s)\n", len(recs), countList(origins))
	fmt.Fprintf(w, "kinds:   %s\n", countList(kinds))
	fmt.Fprintf(w, "status:  %s\n\n", countList(statuses))
}

// countList renders a count map as "k=3 j=1", descending by count.
func countList(m map[string]int) string {
	type kv struct {
		k string
		v int
	}
	kvs := make([]kv, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s=%d", e.k, e.v)
	}
	return strings.Join(parts, " ")
}

// stageBreakdown prints per-stage latency statistics over every stage
// sample in the record set, enum order — server stages then client
// stages, one shared namespace.
func stageBreakdown(w io.Writer, recs []reqtrace.Record) {
	samples := map[string][]int64{}
	var grand int64
	for _, r := range recs {
		for _, s := range r.Stages {
			samples[s.Stage] = append(samples[s.Stage], s.Ns)
			grand += s.Ns
		}
	}
	fmt.Fprintln(w, "per-stage breakdown (over retained records):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  stage\tcount\tp50\tp99\tmax\tsum\tshare")
	for s := reqtrace.Stage(0); s < reqtrace.NumStages; s++ {
		ns := samples[s.String()]
		if len(ns) == 0 {
			continue
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		var sum int64
		for _, v := range ns {
			sum += v
		}
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\t%s\t%.1f%%\n",
			s, len(ns), fmtNs(pct(ns, 50)), fmtNs(pct(ns, 99)),
			fmtNs(ns[len(ns)-1]), fmtNs(sum), 100*float64(sum)/float64(grand))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// criticalPath attributes each record to its dominant stage — the
// stage a fix would have to shorten to move that request's latency.
func criticalPath(w io.Writer, recs []reqtrace.Record) {
	dominant := map[string]int{}
	weight := map[string]int64{}
	for _, r := range recs {
		var top reqtrace.StageNs
		for _, s := range r.Stages {
			if s.Ns > top.Ns {
				top = s
			}
		}
		if top.Stage == "" {
			continue
		}
		dominant[top.Stage]++
		weight[top.Stage] += top.Ns
	}
	fmt.Fprintln(w, "critical path (dominant stage per record):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  stage\trecords\tshare\ttime in stage")
	for s := reqtrace.Stage(0); s < reqtrace.NumStages; s++ {
		n := dominant[s.String()]
		if n == 0 {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\t%s\n",
			s, n, 100*float64(n)/float64(len(recs)), fmtNs(weight[s.String()]))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// slowest details the top-N slowest records with their full timelines.
func slowest(w io.Writer, recs []reqtrace.Record, top int) {
	byTotal := append([]reqtrace.Record(nil), recs...)
	sort.SliceStable(byTotal, func(i, j int) bool { return byTotal[i].TotalNs > byTotal[j].TotalNs })
	if top > len(byTotal) {
		top = len(byTotal)
	}
	fmt.Fprintf(w, "slowest %d requests:\n", top)
	for i := 0; i < top; i++ {
		r := byTotal[i]
		id := "-"
		if r.TraceID != 0 {
			id = fmt.Sprintf("%016x", r.TraceID)
		}
		fmt.Fprintf(w, "  %2d. %s %s/%s %s trace=%s", i+1, fmtNs(r.TotalNs), r.Origin, r.Kind, r.Status, id)
		if r.Attempts > 1 {
			fmt.Fprintf(w, " attempts=%d", r.Attempts)
		}
		if r.WriteSeq > 0 {
			fmt.Fprintf(w, " write=(%d,%d)", r.WriteProc, r.WriteSeq)
		}
		fmt.Fprintf(w, "\n      %s\n", timeline(r.Stages, r.TotalNs))
		if len(r.ServerStages) > 0 {
			slack := r.TotalNs - r.ServerStageSum()
			fmt.Fprintf(w, "      server: %s  (network+respond slack %s)\n",
				timeline(r.ServerStages, 0), fmtNs(slack))
		}
		if r.Err != "" {
			fmt.Fprintf(w, "      err: %s\n", r.Err)
		}
	}
	fmt.Fprintln(w)
}

// timeline renders a stage decomposition as "a 1ms | b 2ms"; with a
// nonzero total, the unattributed remainder is appended as "(other)".
func timeline(stages []reqtrace.StageNs, total int64) string {
	parts := make([]string, 0, len(stages)+1)
	var sum int64
	for _, s := range stages {
		parts = append(parts, fmt.Sprintf("%s %s", s.Stage, fmtNs(s.Ns)))
		sum += s.Ns
	}
	if total > 0 && total-sum > 0 {
		parts = append(parts, fmt.Sprintf("(other) %s", fmtNs(total-sum)))
	}
	if len(parts) == 0 {
		return "(no stages)"
	}
	return strings.Join(parts, " | ")
}

// joins matches client and server records of the same call by trace
// ID and attributes the client/server latency gap to the wire.
func joins(w io.Writer, recs []reqtrace.Record) {
	server := map[uint64]reqtrace.Record{}
	for _, r := range recs {
		if r.Origin == "server" && r.TraceID != 0 {
			server[r.TraceID] = r
		}
	}
	var joined int
	var slackSum int64
	for _, r := range recs {
		if r.Origin != "client" || r.TraceID == 0 {
			continue
		}
		s, ok := server[r.TraceID]
		if !ok {
			continue
		}
		joined++
		slackSum += r.TotalNs - s.TotalNs
	}
	if joined == 0 {
		fmt.Fprintln(w, "joined client+server traces: none")
		return
	}
	fmt.Fprintf(w, "joined client+server traces: %d  (mean client-server slack %s)\n",
		joined, fmtNs(slackSum/int64(joined)))
}

// pct returns the p-th percentile of sorted ns (nearest-rank).
func pct(ns []int64, p int) int64 {
	if len(ns) == 0 {
		return 0
	}
	i := (len(ns)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return ns[i-1]
}

// fmtNs renders nanoseconds at µs precision for readability.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmtrace:", err)
	os.Exit(1)
}
