package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for SplitMix64 with seed 0 (from the public-domain
	// reference implementation by Sebastiano Vigna).
	st := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Fatalf("SplitMix64 draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ≈ 0.5", mean)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const buckets = 8
	const n = 80000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d deviates from %v by >5%%", b, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	const p = 0.25
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ≈ %v", p, mean, 1/p)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(17)
	if v := r.Geometric(1); v != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestStreamDerivation(t *testing.T) {
	a := Stream(42, "worker", 3)
	b := Stream(42, "worker", 3)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Stream is not a pure function of (seed, domain, index)")
		}
	}
	// Different index, domain, or seed must decorrelate the first outputs.
	base := Stream(42, "worker", 3).Uint64()
	for name, s := range map[string]*Source{
		"index":  Stream(42, "worker", 4),
		"domain": Stream(42, "shard", 3),
		"seed":   Stream(43, "worker", 3),
	} {
		if s.Uint64() == base {
			t.Errorf("Stream variation %q produced the same first output", name)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", got)
	}
}

// Property: Uint64n(n) is always < n for arbitrary seeds and n.
func TestPropertyUint64nBounded(t *testing.T) {
	f := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		for i := 0; i < 32; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
