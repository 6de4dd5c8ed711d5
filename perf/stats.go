package perf

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 of 200 samples is the second-largest sample, which
// says more about one scheduler hiccup than about the distribution.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads read the same here and in any script
// that checks them. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether at least minTail samples lie beyond it. Callers report the
// value only when ok is true.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1], len(s)-k >= minTail
}
