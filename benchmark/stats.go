package main

import (
	"math"
	"slices"
)

// dist summarises the per-window (or per-repetition) samples behind one
// reported number: the median is the value, the quartiles and count show
// how far the windows disagreed.
type dist struct {
	q1, med, q3 float64
	n           int
}

// summarize computes quartiles the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so spreads
// printed here match the ones the acceptance driver computes. One sample is
// its own median; none is NaN, which the emitter rejects.
func summarize(samples []float64) dist {
	v := slices.Clone(samples)
	slices.Sort(v)
	switch len(v) {
	case 0:
		return dist{q1: math.NaN(), med: math.NaN(), q3: math.NaN()}
	case 1:
		return dist{q1: v[0], med: v[0], q3: v[0], n: 1}
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return dist{q1: q(1), med: q(2), q3: q(3), n: len(v)}
}

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.n < 2 || d.med == 0 {
		return 0
	}
	return math.Abs((d.q3 - d.q1) / d.med)
}

// p99Samples is the fewest samples a window needs for its p99 to be
// reported: ten beyond the percentile. Below that the number is one or two
// outliers, not a measurement.
const p99Samples = 1000

// p99 returns the nearest-rank 99th percentile of an ascending slice.
func p99(sorted []int64) int64 { return sorted[(len(sorted)*99+99)/100-1] }
