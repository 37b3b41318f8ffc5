package stats_test

// The latency columns of the paper tables are read from telemetry
// histograms; these tests pin the readings those columns rely on.

import (
	"math"
	"testing"
	"testing/quick"

	"sdimm/internal/telemetry"
)

func TestHistogramMeanMax(t *testing.T) {
	var h telemetry.Histogram
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

// TestHistogramOverflow: a sample far above the rest reads at the observed
// max, not at its bucket's upper edge.
func TestHistogramOverflow(t *testing.T) {
	var h telemetry.Histogram
	h.Add(5)
	h.Add(1000) // bucket [992, 1007]
	if h.Quantile(1.0) != 1000 {
		t.Fatalf("overflow quantile = %d, want observed max 1000", h.Quantile(1.0))
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h telemetry.Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// Property: histogram mean equals arithmetic mean of the inserted samples.
func TestPropertyHistogramMean(t *testing.T) {
	f := func(vals []uint16) bool {
		var h telemetry.Histogram
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
		var h telemetry.Histogram
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
