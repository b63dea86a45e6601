package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(data, n=4), whose default method is "exclusive".
	for _, tc := range []struct {
		in          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.40}, 0.31, 0.29, 0.35},
	} {
		s := summarize(tc.in)
		if s.N != len(tc.in) || !near(s.Median, tc.med) || !near(s.Q1, tc.q1) || !near(s.Q3, tc.q3) {
			t.Errorf("summarize(%v) = %+v, want median %v q1 %v q3 %v", tc.in, s, tc.med, tc.q1, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
