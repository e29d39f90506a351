package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p·n/100), with float error in p·n/100 rounded away.
func nearestRank(p float64, n int) int {
	x := p / 100 * float64(n)
	if r := math.Round(x); math.Abs(x-r) < 1e-9 {
		return int(r)
	}
	return int(math.Ceil(x))
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

// highestSupported returns the highest tail percentile that leaves at least
// ten of n samples strictly beyond its nearest-rank sample, or 0 when even
// the median does not.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianDur returns the median of ds in the unit given by conv.
func medianDur(ds []time.Duration, conv func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	return median(xs)
}
