package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// aaRuns is how many runs a seed set has: the driver's ten.
const aaRuns = 10

// runAA is the benchmark's own acceptance test, the one the driver
// repeats: on one commit, two sets of runs per workload, each run on a
// seed of its own (set A: 1..aaRuns, set B: 101..100+aaRuns, seeds never used
// while the benchmark was written). For every end-to-end metric ×
// workload it prints both medians, each set's spread (the distance
// between the first and third quartile of its values as a share of
// their median) and how much worse B's median is than A's, and passes
// the pair when both spreads and the difference stay within the bound.
// Every run is a child process, so CPU, RSS and GC state never leak
// from one run into the next.
func runAA(seconds float64, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	fmt.Printf("# A/A: two sets of %d runs per workload on one commit\n\n", aaRuns)
	fmt.Printf("`bash bench/run.sh --aa`, %g s measured per run, nproc=%d, %s, commit %s.\n\n", seconds, runtime.NumCPU(), runtime.Version(), commit)
	fmt.Printf("Set A uses seeds 1..%d, set B seeds 101..%d. *spread* is the inter-quartile range of a set's %d values over their median;\n", aaRuns, 100+aaRuns, aaRuns)
	fmt.Printf("*worse* is how far B's median is on the bad side of A's. A row passes when both spreads and *worse* are within the bound;\n")
	fmt.Printf("the builder's target is a spread under a third of the bound.\n\n")
	failed := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for s, base := range []int{0, 100} {
			for i := 1; i <= aaRuns; i++ {
				res, err := runChild(exe, w.Name, base+i, seconds, outDir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, base+i, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", w.Name, base+i, res.Correct, res.Failed, res.Attempted)
				}
				for name, mv := range res.Metrics {
					sets[s][name] = append(sets[s][name], mv.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n", w.Name)
		fmt.Printf("| metric | unit | median A | median B | spread A | spread B | worse | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			medA, spreadA := medianSpread(sets[0][m.Name])
			medB, spreadB := medianSpread(sets[1][m.Name])
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			// The contract exempts the spread of setup_s, not its medians.
			if worse > m.Bound || (m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound)) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, medA, medB, 100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	fmt.Printf("%d rows failed; %d runs took %v.\n", failed, 2*aaRuns*len(workloads), time.Since(start).Round(time.Second))
	if failed > 0 {
		return fmt.Errorf("%d metric × workload rows exceed their bound", failed)
	}
	return nil
}

// medianSpread returns the median of xs and the distance between its
// first and third quartile as a share of it.
func medianSpread(xs []float64) (med, spread float64) {
	s := summarize(xs)
	return s.Med, (s.Q3 - s.Q1) / s.Med
}

// runChild runs one untraced workload run in a child process and
// parses the last line of its output.
func runChild(exe, workload string, seed int, seconds float64, outDir string) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}
