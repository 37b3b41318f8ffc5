package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
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

func TestHistogramMeanMax(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []uint64{5, 15, 25, 95, 250} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if got, want := h.Mean(), float64(5+15+25+95+250)/5; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if h.Max() != 250 {
		t.Fatalf("Max = %d", h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 1000)
	for v := uint64(1); v <= 100; v++ {
		h.Add(v)
	}
	if q := h.Quantile(0.5); q < 50 || q > 51 {
		t.Fatalf("median = %d, want ≈ 50", q)
	}
	if q := h.Quantile(1.0); q < 100 || q > 101 {
		t.Fatalf("p100 = %d, want ≈ 100", q)
	}
	if q := h.Quantile(0.01); q < 1 || q > 2 {
		t.Fatalf("p1 = %d, want ≈ 1", q)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 2) // covers [0,20)
	h.Add(5)
	h.Add(1000)
	if h.Quantile(1.0) != 1000 {
		t.Fatalf("overflow quantile = %d, want observed max 1000", h.Quantile(1.0))
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(10, 2)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// Regression: quantile edge cases. Samples past the last bucket must
// report the observed max (not a bucket edge or garbage), out-of-range q
// clamps, and an empty histogram answers 0 everywhere.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(4, 2) // covers [0, 8); both samples overflow
	h.Add(100)
	h.Add(900)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := h.Quantile(q); got != 900 {
			t.Fatalf("Quantile(%v) = %d, want observed max 900", q, got)
		}
	}

	h2 := NewHistogram(1, 10)
	h2.Add(3)
	if got := h2.Quantile(-1); got != 4 {
		t.Fatalf("Quantile(-1) = %d, want clamp to smallest quantile (4)", got)
	}
	if got := h2.Quantile(2); got != 4 {
		t.Fatalf("Quantile(2) = %d, want clamp to p100 (4)", got)
	}

	h3 := NewHistogram(1, 1)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h3.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h3.Max() != 0 || h3.Mean() != 0 {
		t.Fatal("empty histogram must report zero max and mean")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 1) did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestTableSetGet(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Set("r1", "a", 1.5)
	if v, ok := tb.Get("r1", "a"); !ok || v != 1.5 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := tb.Get("r1", "b"); ok {
		t.Fatal("unset cell reported present")
	}
	if _, ok := tb.Get("nope", "a"); ok {
		t.Fatal("missing row reported present")
	}
}

func TestTableRowOrder(t *testing.T) {
	tb := NewTable("t", "c")
	tb.Set("z", "c", 1)
	tb.Set("a", "c", 2)
	tb.Set("z", "c", 3) // overwrite must not duplicate the row
	rows := tb.Rows()
	if len(rows) != 2 || rows[0] != "z" || rows[1] != "a" {
		t.Fatalf("Rows = %v, want [z a] in insertion order", rows)
	}
}

func TestTableMeans(t *testing.T) {
	tb := NewTable("t", "c")
	tb.Set("r1", "c", 2)
	tb.Set("r2", "c", 8)
	if g := tb.ColGeoMean("c"); math.Abs(g-4) > 1e-9 {
		t.Fatalf("ColGeoMean = %v, want 4", g)
	}
}

func TestTableStringContainsGmean(t *testing.T) {
	tb := NewTable("fig", "x")
	tb.Set("r1", "x", 2)
	tb.Set("r2", "x", 8)
	s := tb.String()
	if !strings.Contains(s, "gmean") || !strings.Contains(s, "fig") {
		t.Fatalf("table render missing pieces:\n%s", s)
	}
}

func TestSeriesStringSorted(t *testing.T) {
	var s Series
	s.Name = "curve"
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	str := s.String()
	if !strings.Contains(str, "(1, 10) (2, 20) (3, 30)") {
		t.Fatalf("series not sorted by x: %s", str)
	}
}

// Property: histogram mean equals arithmetic mean of the inserted samples.
func TestPropertyHistogramMean(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(7, 64)
		var sum float64
		for _, v := range vals {
			h.Add(uint64(v))
			sum += float64(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		return math.Abs(h.Mean()-sum/float64(len(vals))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is nondecreasing in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(3, 100)
		for _, v := range vals {
			h.Add(uint64(v))
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Set("r1", "a", 1.5)
	tb.Set("r2", "b", 2)
	csv := tb.CSV()
	want := "name,a,b\nr1,1.5,\nr2,,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
