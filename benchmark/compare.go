package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worse returns by what share of a's value b is worse (negative = better).
func worse(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-12
	}
	d := (b - a) / a
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// spread is a measurement's own interquartile range as a share of its value.
func spread(m measurement) float64 {
	if m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// compareFiles compares run set b against run set a, one row per workload
// and metric. Exact metrics must be equal when both sets used one seed;
// host end-to-end metrics are "unresolved" where either side's own quartiles
// are wider apart than the bound (the difference cannot be told from the
// spread) and otherwise may not be worse by more than the bound; per-layer
// host metrics are reported without a verdict. The
// return value is the process exit code: 1 on any regression.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sameSeed := a.Seed == b.Seed && a.Seconds == b.Seconds
	if !sameSeed {
		fmt.Fprintf(w, "seeds or lengths differ (%d/%gs vs %d/%gs): exact metrics are compared within their bounds, not for equality\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	byName := map[string]runResult{}
	for _, run := range b.Runs {
		byName[run.Workload] = run
	}
	regressions := 0
	row := func(workload string, spec metricSpec, ma, mb measurement, bounded bool) {
		verdict := "info"
		d := worse(spec, ma.Value, mb.Value)
		switch {
		case spec.Exact && sameSeed:
			verdict = "same"
			if ma.Value != mb.Value {
				verdict = "REGRESSION (exact metric changed)"
				regressions++
			}
		case bounded && (spread(ma) > spec.Bound || spread(mb) > spec.Bound):
			verdict = "unresolved (own quartiles wider than the bound)"
		case bounded && d > spec.Bound:
			verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", spec.Bound*100)
			regressions++
		case bounded:
			verdict = "ok"
		}
		fmt.Fprintf(w, "%-14s %-34s %14s %14s %-8s %+7.2f%%  %s\n", workload, spec.Name, fnum(ma.Value), fnum(mb.Value), spec.Unit, d*100, verdict)
	}
	for _, ra := range a.Runs {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from %s\n", ra.Workload, pathB)
			regressions++
			continue
		}
		if !rb.Correct {
			fmt.Fprintf(w, "%-14s %s failed its output checks (%d of %d ops)\n", ra.Workload, pathB, rb.Failed, rb.Attempted)
			regressions++
		}
		for _, spec := range fullEndToEnd() {
			ma, okA := ra.EndToEnd[spec.Name]
			mb, okB := rb.EndToEnd[spec.Name]
			if okA && okB {
				row(ra.Workload, spec, ma, mb, spec.Bound > 0)
			}
		}
		for _, spec := range perLayer {
			ma, okA := ra.PerLayer[spec.Name]
			mb, okB := rb.PerLayer[spec.Name]
			if okA && okB {
				row(ra.Workload, spec, ma, mb, false)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
