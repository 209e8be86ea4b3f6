package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one slow request, not a percentile.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-quantile (0 < p <= 1) of ascending xs by the
// nearest-rank rule: the smallest sample with at least p·n samples at or
// below it.
func nearestRank(xs []float64, p float64) float64 {
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

// percentile is nearestRank over unsorted xs, refusing a figure that has
// fewer than minBeyond samples beyond it: p95 needs at least 200 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.0f of no samples", p*100)
	}
	k := int(math.Ceil(p * float64(n)))
	if beyond := n - k; p < 1 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.0f of %d samples has %d beyond it, want >= %d",
			p*100, n, beyond, minBeyond)
	}
	return nearestRank(sorted(xs), p), nil
}

// median is the middle of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a Python check derives.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
