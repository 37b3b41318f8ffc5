package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for even
// lengths); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of vs as a
// share of their median — the steadiness measure the gate uses. It needs at
// least four values (fewer have no quartiles) and returns 0 otherwise.
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// The exclusive method, as Python's statistics.quantiles(vs, n=4).
		h := p * float64(len(s)+1)
		j := min(max(int(h), 1), len(s)-1)
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// quietest returns the indices of the ceil(quietShare·n) smallest keys,
// smallest first, ties in index order. A key is how slow a slice was (its
// time per operation, or its median latency); see measure.go for why the
// timing metrics are taken from these slices.
func quietest(keys []float64) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx[:int(math.Ceil(quietShare*float64(len(keys))))]
}

// tailPct is the percentile latency_p90_us holds. Beyond it the samples of
// the sequential workloads thin out into a sparse mode whose weight follows
// the host: ten runs of the same code disagreed by a tenth on p95 and p99
// however the slices were chosen, and by a twentieth on p90. The whole run's
// median and highest supported percentile are printed beside the gated
// numbers.
const tailPct = 90

// quietLatency is the latency of a phase over its quiet slices.
type quietLatency struct {
	P50, Tail float64 // over the pooled samples of the quiet slices
	// SpreadP50 and SpreadTail are the spreads of the quiet slices' own
	// medians and tails: how far the quiet part of the run disagreed with
	// itself (0 with fewer than four slices).
	SpreadP50, SpreadTail float64
}

// latencyOver pools the samples of the slices named by quiet and reduces the
// pool. groups holds every slice's samples; it is not modified.
func latencyOver(groups [][]float64, quiet []int) quietLatency {
	var pool, medians, tails []float64
	for _, i := range quiet {
		g := append([]float64(nil), groups[i]...)
		if len(g) == 0 {
			continue
		}
		sort.Float64s(g)
		pool = append(pool, g...)
		medians, tails = append(medians, percentile(g, 50)), append(tails, percentile(g, tailPct))
	}
	if len(pool) == 0 {
		return quietLatency{}
	}
	sort.Float64s(pool)
	return quietLatency{P50: percentile(pool, 50), Tail: percentile(pool, tailPct),
		SpreadP50: spread(medians), SpreadTail: spread(tails)}
}

// groupsOf cuts samples, given in time order, into n consecutive groups of
// equal length (to within one sample).
func groupsOf(samples []float64, n int) [][]float64 {
	n = max(min(n, len(samples)), 1)
	groups := make([][]float64, n)
	for g := range groups {
		groups[g] = samples[g*len(samples)/n : (g+1)*len(samples)/n]
	}
	return groups
}

// segments is how many consecutive groups summarize takes a tail in.
const segments = 20

// tailPerMille are the tail levels a report may quote, highest first, in
// tenths of a percent so that the sample arithmetic is exact.
var tailPerMille = []int{999, 990, 950, 900, 750}

// supportedTail is the highest quoted percentile that leaves at least ten of
// n samples beyond it; 50 when n is too small for any of them.
func supportedTail(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencySummary is what every workload reports for its timing samples.
type latencySummary struct {
	N       int     // samples pooled
	P50     float64 // median of all samples
	P99     float64 // the tail: the TailPct-th percentile, median over Groups
	TailPct float64 // the percentile P99 holds: min(99, supportedTail(N))
	Groups  int     // consecutive groups of samples the tail was taken in
	// SpreadP50 and SpreadTail are the spreads of the groups' medians and
	// tails: how far the run disagreed with itself (0 with fewer than four
	// groups).
	SpreadP50, SpreadTail float64
}

// summarize reduces samples, given in time order, to a latencySummary. want is
// the tail percentile the workload quotes; when fewer than ten samples lie
// beyond it the tail degrades to the highest supported percentile and says so
// in TailPct. Where the samples allow, the tail is taken in each of up to
// `segments` consecutive groups — every group large enough to support the
// percentile by itself — and the median of the groups is reported: a burst of
// host noise lands in a few groups, while a tail the program causes is in all
// of them.
func summarize(samples []float64, want float64) latencySummary {
	n := len(samples)
	if n == 0 {
		return latencySummary{}
	}
	tail := math.Min(want, supportedTail(n))
	need := int(math.Ceil(10000/(1000-tail*10) - 1e-9)) // samples that leave ten beyond tail
	groups := min(max(n/need, 1), segments)
	medians, tails := make([]float64, groups), make([]float64, groups)
	buf := make([]float64, 0, n/groups+1)
	for g := range tails {
		buf = append(buf[:0], samples[g*n/groups:(g+1)*n/groups]...)
		sort.Float64s(buf)
		medians[g], tails[g] = percentile(buf, 50), percentile(buf, tail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return latencySummary{N: n, P50: percentile(s, 50), P99: median(tails), TailPct: tail, Groups: groups,
		SpreadP50: spread(medians), SpreadTail: spread(tails)}
}
