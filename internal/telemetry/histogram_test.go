package telemetry

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not 0")
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
}

// TestHistogramEdges walks the whole layout: every bucket's upper edge maps
// back to it, the next value opens the next bucket, no bucket is wider than
// 1/32 of its lower edge, and the last bucket ends at math.MaxUint64.
func TestHistogramEdges(t *testing.T) {
	lo := uint64(0)
	for i := 0; i < histBuckets; i++ {
		hi := upperEdge(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d = [%d, %d]: bucketOf gives %d, %d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
		if hi-lo > lo/subBuckets {
			t.Fatalf("bucket %d = [%d, %d] wider than 1/32 of %d", i, lo, hi, lo)
		}
		lo = hi + 1
	}
	if upperEdge(histBuckets-1) != math.MaxUint64 {
		t.Fatalf("last edge %d, want MaxUint64", upperEdge(histBuckets-1))
	}
}

// TestHistogramQuantile: below 64 every value is its own bucket, so small
// quantiles are exact.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Add(v)
	}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.01, 1}, {0.5, 50}, {1, 100}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileEdgeCases: a quantile reads its bucket's upper edge,
// capped at the observed max; out-of-range q clamps, and an empty histogram
// answers 0 everywhere.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var h Histogram
	h.Add(100) // bucket [100, 101]
	h.Add(900) // bucket [896, 911]
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.01, 101}, {0.5, 101}, {1, 900}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}

	var h2 Histogram
	h2.Add(3)
	if got := h2.Quantile(-1); got != 3 {
		t.Fatalf("Quantile(-1) = %d, want clamp to smallest quantile (3)", got)
	}
	if got := h2.Quantile(2); got != 3 {
		t.Fatalf("Quantile(2) = %d, want clamp to p100 (3)", got)
	}

	var h3 Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h3.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h3.Max() != 0 || h3.Mean() != 0 {
		t.Fatal("empty histogram must report zero max and mean")
	}
}

// TestHistogramQuantiles: a sample far above the rest is read at the
// observed max, not at its bucket's upper edge.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 30; v++ {
		h.Add(v)
	}
	if q := h.Quantile(0.5); q != 15 {
		t.Fatalf("p50 = %d, want 15", q)
	}
	h.Add(1000) // bucket [992, 1007]
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want observed max 1000", q)
	}
}

// TestHistogramProperties checks the layout's contract on seeded sample
// sets spanning all of uint64.
func TestHistogramProperties(t *testing.T) {
	seeded := func(seed uint64, n int, draw func(*rand.Rand) uint64) []uint64 {
		r := rand.New(rand.NewPCG(seed, 0))
		out := make([]uint64, n)
		for i := range out {
			out[i] = draw(r)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		samples []uint64
	}{
		{"empty", nil},
		{"zero", []uint64{0}},
		{"edges", []uint64{0, 31, 32, 63, 64, 65, 127, 128, 1<<63 - 1, 1 << 63, math.MaxUint64}},
		{"top-octave", []uint64{1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64, math.MaxUint64}},
		{"repeated", seeded(4, 1000, func(r *rand.Rand) uint64 { return []uint64{77, 77, 78, 5000}[r.IntN(4)] })},
		{"uniform-16bit", seeded(1, 1000, func(r *rand.Rand) uint64 { return r.Uint64N(1 << 16) })},
		{"log-uniform-64bit", seeded(2, 1000, func(r *rand.Rand) uint64 { return r.Uint64() >> r.UintN(64) })},
		{"latency-like", seeded(3, 2000, func(r *rand.Rand) uint64 { return uint64(40 + r.ExpFloat64()*30) })},
	} {
		t.Run(c.name, func(t *testing.T) { checkHistogram(t, c.samples) })
	}
}

// FuzzHistogram runs the property checks on samples cut from arbitrary
// bytes, eight little-endian bytes each.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 31))
	f.Fuzz(func(t *testing.T, data []byte) {
		var samples []uint64
		for ; len(data) >= 8; data = data[8:] {
			samples = append(samples, binary.LittleEndian.Uint64(data))
		}
		checkHistogram(t, samples)
	})
}

// checkHistogram adds samples to a histogram and checks it against the
// sorted samples: every value lands in a bucket of the array that holds it;
// N, Sum and Max are exact; Quantile never decreases as q grows, is never
// below the exact order statistic nor above it by more than 1/32 of it, and
// never above Max; Merge of two halves, in either order, equals adding
// every sample.
func checkHistogram(t *testing.T, samples []uint64) {
	t.Helper()
	var all, a, b Histogram
	var sum uint64
	for i, v := range samples {
		k := bucketOf(v)
		if k < 0 || k >= histBuckets || v > upperEdge(k) || (k > 0 && v <= upperEdge(k-1)) {
			t.Fatalf("value %d lands in bucket %d", v, k)
		}
		all.Add(v)
		if i < len(samples)/2 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		sum += v
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	n := uint64(len(sorted))
	if all.N() != n || all.Sum() != sum {
		t.Fatalf("N, Sum = %d, %d, want %d, %d", all.N(), all.Sum(), n, sum)
	}
	if n == 0 {
		if all.Max() != 0 || all.Mean() != 0 || all.Quantile(0.5) != 0 {
			t.Fatal("empty histogram reads non-zero")
		}
	} else {
		if all.Max() != sorted[n-1] {
			t.Fatalf("Max = %d, want %d", all.Max(), sorted[n-1])
		}
		if all.Mean() != float64(sum)/float64(n) {
			t.Fatalf("Mean = %v, want %v", all.Mean(), float64(sum)/float64(n))
		}
		prev := uint64(0)
		for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			got := all.Quantile(q)
			exact := sorted[max(uint64(math.Ceil(q*float64(n))), 1)-1]
			if got < prev || got < exact || got-exact > exact/subBuckets || got > all.Max() {
				t.Fatalf("Quantile(%v) = %d: exact %d, previous %d, max %d", q, got, exact, prev, all.Max())
			}
			prev = got
		}
	}
	var ab, ba Histogram
	ab.Merge(&a)
	ab.Merge(&b)
	ba.Merge(&b)
	ba.Merge(&a)
	if ab != all || ba != all {
		t.Fatal("merging two halves differs from adding every sample")
	}
}
