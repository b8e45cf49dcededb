package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	return quantileSorted(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it (the choosing-metrics rule) and returns it with
// its value; ok is false when even p75 has fewer than ten samples above
// it, i.e. below 40 samples.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// Nearest-rank: the value at rank ceil(p/100*n); samples beyond
		// it are the n-rank strictly higher-ranked ones.
		// (The epsilon keeps 99.9/100*10000 from rounding up to 9991.)
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// quartiles reproduces Python's statistics.quantiles(values, n=4)
// (method "exclusive"), which is what the acceptance driver applies to
// the ten-run sets.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := quantileSorted(s, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// quietQuartile is the first quartile of a per-cycle timing. Interference
// on a shared machine only ever adds time, in bursts of seconds; at this
// commit, across consecutive 10 s windows of one process, the quartile of
// the undisturbed cycles moved half as much as the median did and a third
// as much as the mean (see README.md).
func quietQuartile(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 0.25) }
