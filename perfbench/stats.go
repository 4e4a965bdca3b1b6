package main

import (
	"math"
	"sort"
)

// tailWindow is the fewest primary ops one p99 window holds: enough
// for minBeyond samples beyond its 99th percentile.
const tailWindow = 1000

// minBeyond is how many samples must lie beyond a percentile for the
// benchmark to report it as supported.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// median is the middle value (mean of the middle two), or NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowedP99 splits the primary ops, in completion order, into
// consecutive windows of at least tailWindow ops and returns the median
// of the windows' 99th percentiles, and how many windows there were.
// A run-wide 99th percentile is set by the machine's slowest stretch
// (on a shared VM, seconds of lost speed); the median over windows is
// set by the workload. With fewer than tailWindow ops there is one
// window, and its percentile is unsupported.
func windowedP99(samples []sample) (float64, int) {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].done.Before(s[j].done) })
	n := max(1, len(s)/tailWindow)
	p99s := make([]float64, n)
	for w := range p99s {
		chunk := s[w*len(s)/n : (w+1)*len(s)/n]
		lat := make([]float64, len(chunk))
		for i, x := range chunk {
			lat[i] = x.ms
		}
		p99s[w], _ = percentile(lat, 0.99)
	}
	return median(p99s), n
}
