package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order, series in registration order, histogram buckets cumulative
// with the conventional `le` label and +Inf terminator.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, k := range f.order {
			m := f.series[k]
			switch {
			case m.counter != nil:
				if err := writeSeries(w, f.name, m.labels, "", float64(m.counter.Value())); err != nil {
					return err
				}
			case m.gauge != nil:
				if err := writeSeries(w, f.name, m.labels, "", float64(m.gauge.Value())); err != nil {
					return err
				}
			case m.fn != nil:
				if err := writeSeries(w, f.name, m.labels, "", float64(m.fn())); err != nil {
					return err
				}
			case m.hist != nil:
				cum := m.hist.Snapshot()
				bounds := m.hist.Bounds()
				for i, b := range bounds {
					le := L("le", fmt.Sprint(b))
					if err := writeSeries(w, f.name+"_bucket", joinLabels(m.labels, le), "", float64(cum[i])); err != nil {
						return err
					}
				}
				if err := writeSeries(w, f.name+"_bucket", joinLabels(m.labels, L("le", "+Inf")), "", float64(cum[len(cum)-1])); err != nil {
					return err
				}
				if err := writeSeries(w, f.name+"_sum", m.labels, "", float64(m.hist.Sum())); err != nil {
					return err
				}
				if err := writeSeries(w, f.name+"_count", m.labels, "", float64(cum[len(cum)-1])); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// joinLabels merges a canonical label string with one extra label,
// keeping the canonical sort order.
func joinLabels(canonical string, extra Label) string {
	add := fmt.Sprintf("%s=%q", extra.Name, extra.Value)
	if canonical == "" {
		return add
	}
	parts := append(strings.Split(canonical, ","), add)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func writeSeries(w io.Writer, name, labels, suffix string, v float64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s%s %g\n", name, suffix, v)
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s{%s} %g\n", name, suffix, labels, v)
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// expvarSnapshot renders the registry as a flat name{labels} -> value
// map for expvar consumers.
func (r *Registry) expvarSnapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any)
	key := func(name, labels string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	for _, name := range r.order {
		f := r.fams[name]
		for _, k := range f.order {
			m := f.series[k]
			switch {
			case m.counter != nil:
				out[key(f.name, m.labels)] = m.counter.Value()
			case m.gauge != nil:
				out[key(f.name, m.labels)] = m.gauge.Value()
			case m.fn != nil:
				out[key(f.name, m.labels)] = m.fn()
			case m.hist != nil:
				out[key(f.name+"_count", m.labels)] = m.hist.Count()
				out[key(f.name+"_sum", m.labels)] = m.hist.Sum()
			}
		}
	}
	return out
}

var expvarMu sync.Mutex

// PublishExpvar exposes the registry under the given expvar name
// (shown at /debug/vars). Re-publishing under a name that is already
// taken replaces nothing and is a no-op rather than the panic
// expvar.Publish would raise — CLIs may build several registries over
// one process lifetime (e.g. dsmbench sweeps).
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.expvarSnapshot() }))
}
