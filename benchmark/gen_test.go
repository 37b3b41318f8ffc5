package main

import (
	"math"
	"reflect"
	"testing"
)

func drawOps(seed uint64, zipf float64, n int) []op {
	g := newOpGen(seed, "test", 100, 512, zipf)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for _, zipf := range []float64{0, zipfHot} {
		a, b, c := drawOps(7, zipf, 4096), drawOps(7, zipf, 4096), drawOps(8, zipf, 4096)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("zipf %g: one seed gave two streams", zipf)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("zipf %g: two seeds gave one stream", zipf)
		}
		writes := 0
		for _, o := range a {
			if o.addr < 100 || o.addr >= 612 {
				t.Fatalf("zipf %g: address %d outside [100, 612)", zipf, o.addr)
			}
			if o.write {
				writes++
			}
		}
		if writes < 1800 || writes > 2300 {
			t.Errorf("zipf %g: %d of 4096 operations are writes, want about half", zipf, writes)
		}
	}
	a, b := poissonDue(7, "test", 4000, 4096), poissonDue(7, "test", 4000, 4096)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two arrival schedules")
	}
	if reflect.DeepEqual(a, poissonDue(8, "test", 4000, 4096)) {
		t.Error("two seeds gave one arrival schedule")
	}
}

func TestZipfIsSkewedAndPoissonHasItsRate(t *testing.T) {
	count := map[uint64]int{}
	for _, o := range drawOps(3, zipfHot, 20000) {
		count[o.addr]++
	}
	top := 0
	for _, n := range count {
		top = max(top, n)
	}
	// At exponent 1.1 over 512 keys the first rank draws about 17 % of accesses;
	// a uniform key would draw 0.2 %.
	if share := float64(top) / 20000; share < 0.12 || share > 0.22 {
		t.Errorf("hottest key draws %.3f of accesses, want about 0.17", share)
	}
	due := poissonDue(3, "test", 4000, 40000)
	for i := 1; i < len(due); i++ {
		if due[i] <= due[i-1] {
			t.Fatalf("arrival %d is not after arrival %d", i, i-1)
		}
	}
	if rate := float64(len(due)) / due[len(due)-1]; math.Abs(rate/4000-1) > 0.03 {
		t.Errorf("arrival rate %.0f/s, want 4000/s", rate)
	}
}

func TestOracleCatchesWrongBlocks(t *testing.T) {
	or := newOracle(16)
	v1, v2 := make([]byte, blockSize), make([]byte, blockSize)
	or.write(5, v1)
	or.write(5, v2)
	if !or.check(5, v2) {
		t.Error("the last payload written fails the check")
	}
	if or.check(5, v1) {
		t.Error("a stale version passes the check")
	}
	if or.check(6, v2) {
		t.Error("a block of another address passes the check")
	}
	flipped := append([]byte(nil), v2...)
	flipped[40] ^= 1
	if or.check(5, flipped) {
		t.Error("a flipped byte passes the check")
	}
	if or.check(5, v2[:32]) {
		t.Error("a short block passes the check")
	}
}
