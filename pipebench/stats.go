package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice; NaN when empty.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles of an ascending slice by the "exclusive" method of Python's
// statistics.quantiles(data, n=4), the method the benchmark's steadiness
// rule is stated in. A single sample is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
