package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile for
// it to be reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// samples is an unordered set of durations in nanoseconds.
type samples []int64

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// validQuantile reports whether quantile q over n samples has at least
// minBeyond samples strictly beyond its rank.
func validQuantile(q float64, n int) bool {
	if n == 0 {
		return false
	}
	return n-1-rank(q, n) >= minBeyond
}

// quantileNS returns the nearest-rank quantile of s (sorting s in place)
// and whether it meets the minBeyond rule. An empty set yields (0, false).
func (s samples) quantileNS(q float64) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return s[rank(q, len(s))], validQuantile(q, len(s))
}

// sliceMedian returns the median over slices of each slice's median,
// where sample v[i] fell in slice at[i], and whether there was a sample.
func sliceMedian(v samples, at []int32) (int64, bool) {
	by := make(map[int32]samples)
	for i, x := range v {
		by[at[i]] = append(by[at[i]], x)
	}
	meds := make([]float64, 0, len(by))
	for _, sl := range by {
		m, _ := sl.quantileNS(0.5)
		meds = append(meds, float64(m))
	}
	if len(meds) == 0 {
		return 0, false
	}
	return int64(medianF(meds)), true
}

// medianF is the median of a float slice (sorted in place); 0 when empty.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// histQuantile estimates quantile q of an obs histogram as the upper bound
// of the bucket holding the nearest-rank sample; the overflow bucket reports
// the largest bound. It returns (0, 0) for an empty histogram.
func histQuantile(bounds []int64, counts []uint64, q float64) (int64, uint64) {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0, 0
	}
	want := uint64(rank(q, int(n))) + 1
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if i < len(bounds) {
				return bounds[i], n
			}
			break
		}
	}
	return bounds[len(bounds)-1], n
}
