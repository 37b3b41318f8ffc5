package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	// The highest quoted percentile that leaves at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	// 20000 samples cycling through 1..1000: every group of 1000 holds each
	// value once, so every group's p99 is 990.
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = float64(1000 - i%1000) // descending: summarize must sort copies
	}
	s := summarize(samples, 99)
	if s.N != 20000 || s.P50 != 500 || s.P99 != 990 || s.TailPct != 99 || s.Groups != segments {
		t.Errorf("summarize = %+v", s)
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	// A burst that lands in three of the twenty groups moves the pooled p99
	// (300 samples of 20000 are beyond it) but not the median of the groups.
	for i := 5000; i < 8000; i += 10 {
		samples[i] = 1e6
	}
	if s := summarize(samples, 99); s.P99 != 990 {
		t.Errorf("tail after a burst in 3 of 20 groups = %g, want 990", s.P99)
	}
	// The workload's own level is kept when the samples support more.
	if s := summarize(samples, 95); s.TailPct != 95 || s.Groups != segments {
		t.Errorf("summarize at p95 = %+v", s)
	}
	// Too few samples for the level asked: the tail degrades and says which
	// percentile it is. 150 samples leave ten beyond p90.
	few := samples[:150] // 1000..851
	if s := summarize(few, 99); s.N != 150 || s.TailPct != 90 || s.Groups != 1 || s.P99 != 985 {
		t.Errorf("summarize of 150 samples = %+v", s)
	}
	// A run disturbed in eight groups of twenty still reports the undisturbed
	// tail, and says beside it how far the groups disagreed.
	for i := 8000; i < 13000; i += 10 {
		samples[i] = 1e6
	}
	if s := summarize(samples, 99); s.P99 != 990 || s.SpreadTail <= 1 {
		t.Errorf("after a burst in 8 of 20 groups: tail %g, spread %g", s.P99, s.SpreadTail)
	}
	if s := summarize(nil, 99); s != (latencySummary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestQuietest(t *testing.T) {
	// A quarter of the keys, rounded up, smallest first, ties in index order.
	for _, c := range []struct {
		keys []float64
		want []int
	}{
		{[]float64{5, 1, 4, 2, 3, 9, 8, 7}, []int{1, 3}},
		{[]float64{3, 1, 2, 1, 5}, []int{1, 3}},
		{[]float64{7}, []int{0}},
		{nil, nil},
	} {
		got := quietest(c.keys)
		if len(got) != len(c.want) {
			t.Errorf("quietest(%v) = %v, want %v", c.keys, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("quietest(%v) = %v, want %v", c.keys, got, c.want)
			}
		}
	}
}

func TestLatencyOver(t *testing.T) {
	// Eight slices of 100 samples, 1..100 each; six of them slowed threefold.
	// The two quiet ones are pooled, so the slow ones move nothing.
	groups := make([][]float64, 8)
	keys := make([]float64, 8)
	for g := range groups {
		scale := 3.0
		if g == 2 || g == 5 {
			scale = 1
		}
		for i := 100; i >= 1; i-- { // descending: latencyOver must sort copies
			groups[g] = append(groups[g], scale*float64(i))
		}
		keys[g] = median(groups[g])
	}
	l := latencyOver(groups, quietest(keys))
	if l.P50 != 50 || l.Tail != 90 {
		t.Errorf("latencyOver = %+v, want p50 50, tail 90", l)
	}
	if groups[2][0] != 100 {
		t.Error("latencyOver reordered its input")
	}
	if l := latencyOver(groups, nil); l != (quietLatency{}) {
		t.Errorf("latencyOver of no slices = %+v", l)
	}
	// A single coarse unit per slice, as the simulator gives: the quietest
	// two of seven, whose larger is the tail.
	coarse := [][]float64{{9}, {4}, {8}, {3}, {7}, {6}, {5}}
	if l := latencyOver(coarse, []int{3, 1}); l.P50 != 3 || l.Tail != 4 {
		t.Errorf("latencyOver(coarse) = %+v", l)
	}
}

func TestGroupsOf(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7}
	groups := groupsOf(samples, 3)
	n := 0
	for _, g := range groups {
		if len(g) < 2 || len(g) > 3 {
			t.Errorf("group of %d samples", len(g))
		}
		n += len(g)
	}
	if len(groups) != 3 || n != len(samples) {
		t.Errorf("groupsOf = %v", groups)
	}
	if g := groupsOf(samples[:2], 5); len(g) != 2 {
		t.Errorf("more groups than samples: %v", g)
	}
	if g := groupsOf(nil, 5); len(g) != 1 || len(g[0]) != 0 {
		t.Errorf("groupsOf(nil) = %v", g)
	}
}

func TestSpreadIsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 10, 4, 3, 9, 2, 8, 6, 5}
	if got := spread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12, 16.5]
	if got := spread([]float64{10, 11, 12, 13, 20}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spread = %g, want (16.5-10.5)/12 = 0.5", got)
	}
	if got := spread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("spread of three values = %g, want 0 (no quartiles)", got)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median")
	}
}

func TestJudge(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "latency_p50_us", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: &bound}
	for _, c := range []struct {
		m              metricSpec
		a, b           float64
		spreadA, sprdB float64
		want           string
	}{
		{lower, 100, 109, 0, 0, verdictOK},
		{lower, 100, 50, 0, 0, verdictOK}, // better is never a regression
		{lower, 100, 120, 0.02, 0.02, verdictRegression},
		{lower, 100, 120, 0.02, 0.30, verdictUnresolved}, // the run itself was wider than the bound
		{higher, 100, 91, 0, 0, verdictOK},
		{higher, 100, 80, 0, 0, verdictRegression},
		{higher, 100, 300, 0, 0, verdictOK},
		{metricSpec{Name: "link.bytes_per_op"}, 584, 584, 0, 0, verdictOK},
		{metricSpec{Name: "link.bytes_per_op"}, 584, 600, 0, 0, verdictExact},
		{metricSpec{Name: "oram.access_us"}, 50, 70, 0, 0, verdictOK}, // per-layer times have no bound
		{metricSpec{Name: "serve.shed"}, 0, 0, 0, 0, verdictOK},
		{metricSpec{Name: "durable.checkpoints"}, 0, 3, 0, 0, verdictExact},
	} {
		if _, got := judge(c.m, c.a, c.b, c.spreadA, c.sprdB); got != c.want {
			t.Errorf("judge(%s, %g → %g) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
