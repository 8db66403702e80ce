package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ScorecardSchema names the JSON document version WriteScorecard
// emits. Bump it only on breaking changes to the Result or
// trace.RunStats wire shape; additive fields keep the version.
const ScorecardSchema = "dsmbench/v1"

// Scorecard is the machine-readable form of a dsmbench run: every
// experiment table verbatim, plus whatever per-run statistics the
// experiments attached. CI stores these as artifacts so regressions
// show up as a diff against BENCH_baseline.json rather than a memory.
type Scorecard struct {
	Schema      string   `json:"schema"`
	Experiments []Result `json:"experiments"`
}

// WriteScorecard serializes the results as an indented, stable JSON
// document.
func WriteScorecard(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Scorecard{Schema: ScorecardSchema, Experiments: results}); err != nil {
		return fmt.Errorf("experiments: scorecard encode: %w", err)
	}
	return nil
}

// ReadScorecard parses a WriteScorecard document, rejecting unknown
// schema versions.
func ReadScorecard(r io.Reader) (Scorecard, error) {
	var sc Scorecard
	if err := json.NewDecoder(r).Decode(&sc); err != nil {
		return sc, fmt.Errorf("experiments: scorecard decode: %w", err)
	}
	if sc.Schema != ScorecardSchema {
		return sc, fmt.Errorf("experiments: scorecard schema %q, want %q", sc.Schema, ScorecardSchema)
	}
	return sc, nil
}

// Gate is how Check compares an experiment's table with a baseline's:
// rows match on the Key columns, and each MaxRise column may exceed
// the baseline cell by at most that fraction (0 = never above it).
// Every gated column is one where lower is better.
type Gate struct {
	Key     []string           `json:"key"`
	MaxRise map[string]float64 `json:"max_rise"`
}

// Check gates current against a baseline scorecard, using the gate
// each baseline experiment recorded. A baseline experiment without a
// gate is an error. Experiments the current run did not produce, and
// rows present in only one document, are skipped, so resizing a sweep
// doesn't break its gate; improvements never fail. A baseline that
// shares no experiment with current gates nothing, which is an error.
func Check(current []Result, baseline Scorecard) error {
	compared := 0
	for _, base := range baseline.Experiments {
		g := base.Gate
		if g == nil {
			return fmt.Errorf("experiments: baseline %s declares no gate", base.Name)
		}
		var cur *Result
		for i := range current {
			if current[i].Name == base.Name {
				cur = &current[i]
				break
			}
		}
		if cur == nil {
			continue
		}
		compared++
		got, err := cur.rowsByKey(g.Key)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		cols := make([]string, 0, len(g.MaxRise))
		for col := range g.MaxRise {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, wantRow := range base.Rows {
			k, err := base.key(wantRow, g.Key)
			if err != nil {
				return fmt.Errorf("experiments: baseline: %w", err)
			}
			gotRow, ok := got[k]
			if !ok {
				continue
			}
			for _, col := range cols {
				want, err := base.num(wantRow, col)
				if err != nil {
					return fmt.Errorf("experiments: baseline: %w", err)
				}
				v, err := cur.num(gotRow, col)
				if err != nil {
					return fmt.Errorf("experiments: %w", err)
				}
				if ceiling := want * (1 + g.MaxRise[col]); v > ceiling {
					return fmt.Errorf("experiments: %s regression at %s: %s %.6g > %.6g (baseline %.6g + %.6g%%)",
						base.Name, k, col, v, ceiling, want, 100*g.MaxRise[col])
				}
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("experiments: the baseline gates nothing the current run produced")
	}
	return nil
}

// column returns the index of the named header column.
func (r *Result) column(name string) (int, error) {
	for i, h := range r.Header {
		if h == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%s table lacks a %q column (header %v)", r.Name, name, r.Header)
}

// cell returns row's cell in the named column.
func (r *Result) cell(row []string, name string) (string, error) {
	i, err := r.column(name)
	if err != nil {
		return "", err
	}
	if i >= len(row) {
		return "", fmt.Errorf("%s row %v has no %q cell", r.Name, row, name)
	}
	return row[i], nil
}

// num parses row's cell in the named column as a number.
func (r *Result) num(row []string, name string) (float64, error) {
	s, err := r.cell(row, name)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %s cell %q: %w", r.Name, name, s, err)
	}
	return v, nil
}

// key joins row's cells in the key columns with "/".
func (r *Result) key(row []string, cols []string) (string, error) {
	parts := make([]string, len(cols))
	for i, col := range cols {
		s, err := r.cell(row, col)
		if err != nil {
			return "", err
		}
		parts[i] = s
	}
	return strings.Join(parts, "/"), nil
}

// rowsByKey indexes the table's rows by their key.
func (r *Result) rowsByKey(cols []string) (map[string][]string, error) {
	out := make(map[string][]string, len(r.Rows))
	for _, row := range r.Rows {
		k, err := r.key(row, cols)
		if err != nil {
			return nil, err
		}
		out[k] = row
	}
	return out, nil
}
