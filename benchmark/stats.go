package main

import (
	"math"
	"sort"
)

// measurement is one reported number with the spread of the samples behind
// it. Value is the median unless the metric is a count, a throughput over
// a whole phase, or a tail percentile; N, Q1 and Q3 always describe the
// raw samples.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Pct is the percentile actually used for a *_p95_* metric (see
	// tailPercentile); 0 elsewhere.
	Pct float64 `json:"pct,omitempty"`
}

// quantile returns the q-quantile (0..1) of sorted samples with linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// summarize reports the median and quartiles of samples, scaled into the
// metric's unit.
func summarize(samples []float64, scale float64) measurement {
	s := sortedCopy(samples)
	return measurement{
		Value: quantile(s, 0.5) * scale,
		N:     len(s),
		Q1:    quantile(s, 0.25) * scale,
		Q3:    quantile(s, 0.75) * scale,
	}
}

// single reports a value that has no sample distribution of its own.
func single(v float64) measurement { return measurement{Value: v, N: 1, Q1: v, Q3: v} }

// tailCandidates are the percentiles a tail metric may use, highest first.
// p99 is deliberately absent: at this benchmark's sample counts it does not
// repeat within a tenth.
var tailCandidates = []float64{0.95, 0.90, 0.75}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it, falling back to the median when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// The small epsilon keeps 200 samples at p95 (exactly ten beyond)
		// from being lost to floating point.
		if float64(n)*(1-p)+1e-9 >= 10 {
			return p
		}
	}
	return 0.5
}

// summarizeTail reports the tail of samples at tailPercentile(len).
func summarizeTail(samples []float64, scale float64) measurement {
	s := sortedCopy(samples)
	p := tailPercentile(len(s))
	return measurement{
		Value: quantile(s, p) * scale,
		N:     len(s),
		Q1:    quantile(s, 0.25) * scale,
		Q3:    quantile(s, 0.75) * scale,
		Pct:   p * 100,
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
