package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tailPercentile picks the highest rung of tailLadder that still has at
// least ten of n samples beyond its nearest-rank sample: a tail estimated
// from fewer is one scheduling hiccup, not a percentile.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// relSpread is |a-b| as a share of their mean (0 when both are 0).
func relSpread(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
