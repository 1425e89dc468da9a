package main

import (
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency is chosen from,
// highest first.
var tailLadder = []int{99, 95, 90, 75}

// tailPercentile returns the highest ladder percentile, up to limit,
// with at least ten of n samples beyond it, or 50 when even the lowest
// rung has fewer than ten. The limit keeps a workload's reported
// percentile the same from run to run when its sample count varies
// around a rung.
func tailPercentile(n, limit int) int {
	for _, p := range tailLadder {
		if p <= limit && n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks), or 0 for no samples. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := p / 100 * float64(len(xs)-1)
	lo := int(r)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (r-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// mbPerSec is bytes ÷ total duration in MB/s (10^6 bytes), 0 when no
// time was spent.
func mbPerSec(bytes int64, ds []time.Duration) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	if total <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / total.Seconds()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
