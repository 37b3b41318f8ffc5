package cache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {8, 0}, {7, 2}, {24, 2}} {
		if _, err := New(c[0], c[1]); err == nil {
			t.Errorf("New(%d, %d) accepted", c[0], c[1])
		}
	}
	if _, err := New(16, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,1) did not panic")
		}
	}()
	MustNew(0, 1)
}

func TestHitAfterInsert(t *testing.T) {
	c := MustNew(16, 4)
	if c.Access(5, false).Hit {
		t.Fatal("cold access hit")
	}
	if !c.Access(5, false).Hit {
		t.Fatal("second access missed")
	}
	if !c.Contains(5) {
		t.Fatal("Contains false after insert")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(4, 4) // one set
	for k := uint64(0); k < 4; k++ {
		c.Access(k*4, false) // all map to set 0 with 1 set... keys arbitrary
	}
	// Touch 0 to make it MRU; insert new key: victim must not be 0.
	c.Access(0, false)
	res := c.Access(100, false)
	if !res.Evicted {
		t.Fatal("full set did not evict")
	}
	if res.Victim == 0 {
		t.Fatal("evicted the MRU line")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := MustNew(2, 2)
	c.Access(0, true) // dirty
	c.Access(2, false)
	res := c.Access(4, false)
	if !res.Evicted || !res.VictimDirty || res.Victim != 0 {
		t.Fatalf("dirty eviction: %+v", res)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c := MustNew(2, 2)
	c.Access(0, false)
	c.Access(0, true) // hit, now dirty
	c.Access(2, false)
	res := c.Access(4, false)
	if !res.VictimDirty {
		t.Fatalf("dirty-on-hit lost: %+v", res)
	}
}

func TestSetIsolation(t *testing.T) {
	c := MustNew(8, 2) // 4 sets
	// Fill set 0 (keys ≡ 0 mod 4); keys in other sets must survive.
	c.Access(100, false) // set 0 (100&3 == 0)
	c.Access(1, false)   // set 1
	c.Access(0, false)
	c.Access(4, false)
	c.Access(8, false) // evicts in set 0 only
	if !c.Contains(1) {
		t.Fatal("eviction crossed sets")
	}
}

// Property: after accessing K, Contains(K); capacity never exceeded (no
// panic), and re-access always hits immediately.
func TestPropertyAccessThenHit(t *testing.T) {
	c := MustNew(64, 4)
	f := func(keys []uint64) bool {
		for _, k := range keys {
			c.Access(k, false)
			if !c.Contains(k) {
				return false
			}
			if !c.Access(k, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
