package main

import (
	"math"
	"sort"
	"time"
)

// percentile is a nearest-rank percentile with the number of samples
// it was taken over.
type percentile struct {
	value   float64
	samples int
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for no samples.
func nearestRank(xs []float64, p float64) percentile {
	if len(xs) == 0 {
		return percentile{value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return percentile{value: s[rank-1], samples: len(s)}
}

// minSamples is how many samples a nearest-rank percentile needs so
// that at least ten lie beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(1000 / (100 - p)))
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the method Python's statistics.quantiles uses by
// default ("exclusive"), so the spreads this benchmark prints are the
// ones a Python check computes from the same values. It needs at least
// two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
