package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quietDecile is the estimator every host-time end-to-end metric
// uses: the 10th percentile of identical repetitions. On a shared box
// the mean and the median of a run wander by 10–20% between runs while
// the quiet decile repeats within a few percent (README, noise table).
func quietDecile(xs []float64) float64 { return quantile(xs, 0.10) }

func median(xs []float64) float64 { return quantile(xs, 0.50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
