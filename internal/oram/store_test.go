package oram

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestBucketHelpers(t *testing.T) {
	b := NewBucket(4)
	if len(b.Slots) != 4 || b.RealBlocks() != 0 {
		t.Fatalf("new bucket: %+v", b)
	}
	b.Slots[1] = Block{Addr: 7, Leaf: 3}
	if b.RealBlocks() != 1 {
		t.Fatalf("RealBlocks = %d", b.RealBlocks())
	}
	if !b.Slots[0].IsDummy() || b.Slots[1].IsDummy() {
		t.Fatal("dummy detection wrong")
	}
}

func TestSparseStoreEmptyReadsDummy(t *testing.T) {
	s := NewSparseStore(4)
	b, err := s.ReadBucket(12345)
	if err != nil || b.RealBlocks() != 0 || len(b.Slots) != 4 {
		t.Fatalf("empty read: %+v %v", b, err)
	}
	if s.Materialized() != 0 {
		t.Fatal("read materialized a bucket")
	}
}

func TestSparseStoreRoundTrip(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 9, Leaf: 2}
	if err := s.WriteBucket(5, b); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBucket(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[0].Addr != 9 || got.Slots[0].Leaf != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSparseStoreCounterMonotonic(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	for i := 1; i <= 3; i++ {
		if err := s.WriteBucket(1, b); err != nil {
			t.Fatal(err)
		}
		got, _ := s.ReadBucket(1)
		if got.Counter != uint64(i) {
			t.Fatalf("counter after %d writes = %d", i, got.Counter)
		}
	}
	// Writing a bucket carrying a bogus counter must not reset it.
	bogus := NewBucket(4)
	bogus.Counter = 0
	s.WriteBucket(1, bogus)
	got, _ := s.ReadBucket(1)
	if got.Counter != 4 {
		t.Fatalf("counter hijacked: %d", got.Counter)
	}
}

func TestSparseStoreCopyIsolation(t *testing.T) {
	s := NewSparseStore(4)
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1}
	s.WriteBucket(0, b)
	got, _ := s.ReadBucket(0)
	got.Slots[0].Addr = 999
	again, _ := s.ReadBucket(0)
	if again.Slots[0].Addr != 1 {
		t.Fatal("ReadBucket aliases internal state")
	}
	b.Slots[0].Addr = 777 // mutate after write
	again, _ = s.ReadBucket(0)
	if again.Slots[0].Addr != 1 {
		t.Fatal("WriteBucket aliases caller state")
	}
}

func TestSparseStoreRejectsWrongZ(t *testing.T) {
	s := NewSparseStore(4)
	if err := s.WriteBucket(0, NewBucket(3)); err == nil {
		t.Fatal("wrong-Z bucket accepted")
	}
}

func TestMemStoreRoundTripWithPayload(t *testing.T) {
	s, err := NewMemStore(4, 64, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBucket(4)
	data := bytes.Repeat([]byte{0xAB}, 64)
	b.Slots[2] = Block{Addr: 42, Leaf: 17, Data: data}
	if err := s.WriteBucket(3, b); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBucket(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[2].Addr != 42 || got.Slots[2].Leaf != 17 || !bytes.Equal(got.Slots[2].Data, data) {
		t.Fatalf("round trip: %+v", got.Slots[2])
	}
	if got.RealBlocks() != 1 {
		t.Fatalf("RealBlocks = %d", got.RealBlocks())
	}
}

func TestMemStoreDetectsCorruption(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	s.WriteBucket(0, NewBucket(4))
	if !s.Corrupt(0) {
		t.Fatal("Corrupt found no bucket")
	}
	if _, err := s.ReadBucket(0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted bucket read: %v", err)
	}
	if s.Corrupt(99) {
		t.Fatal("Corrupt invented a bucket")
	}
}

func TestMemStoreCiphertextChangesEveryWrite(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1, Data: make([]byte, 64)}
	s.WriteBucket(7, b)
	c1, _ := s.RawBucket(7)
	s.WriteBucket(7, b)
	c2, _ := s.RawBucket(7)
	if bytes.Equal(c1[8:], c2[8:]) {
		t.Fatal("identical plaintext re-encrypted identically (pad reuse)")
	}
}

func TestMemStoreRejectsOversizedPayload(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	b := NewBucket(4)
	b.Slots[0] = Block{Addr: 1, Leaf: 1, Data: make([]byte, 65)}
	if err := s.WriteBucket(0, b); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestMemStoreInvalidShape(t *testing.T) {
	if _, err := NewMemStore(0, 64, nil); err == nil {
		t.Fatal("Z=0 accepted")
	}
	if _, err := NewMemStore(4, 0, nil); err == nil {
		t.Fatal("blockBytes=0 accepted")
	}
}

// Property: MemStore round-trips arbitrary bucket contents.
func TestPropertyMemStoreRoundTrip(t *testing.T) {
	s, _ := NewMemStore(2, 16, []byte("prop"))
	f := func(idx uint64, a0, l0, a1, l1 uint64, d0, d1 [16]byte) bool {
		b := NewBucket(2)
		if a0 != DummyAddr {
			b.Slots[0] = Block{Addr: a0, Leaf: l0, Data: d0[:]}
		}
		if a1 != DummyAddr {
			b.Slots[1] = Block{Addr: a1, Leaf: l1, Data: d1[:]}
		}
		if err := s.WriteBucket(idx, b); err != nil {
			return false
		}
		got, err := s.ReadBucket(idx)
		if err != nil {
			return false
		}
		for i := range b.Slots {
			if got.Slots[i].Addr != b.Slots[i].Addr {
				return false
			}
			if !b.Slots[i].IsDummy() {
				if got.Slots[i].Leaf != b.Slots[i].Leaf || !bytes.Equal(got.Slots[i].Data, b.Slots[i].Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// goldenBucket is the fixed plaintext TestMemStoreSealedBytesGolden seals: a
// full payload, a short one (zero-padded by the store) and two dummies.
func goldenBucket() Bucket {
	b := NewBucket(4)
	full := make([]byte, 64)
	for i := range full {
		full[i] = byte(3*i + 1)
	}
	b.Slots[0] = Block{Addr: 1, Leaf: 5, Data: full}
	b.Slots[2] = Block{Addr: 0xdeadbeef, Leaf: 1 << 20, Data: []byte("short payload")}
	return b
}

// TestMemStoreSealedBytesGolden pins counter || ciphertext || tag to the
// bytes the store produced before the keystream was batched and the bucket
// map became an arena (literals captured at commit cae947f): a root bucket,
// a tree bucket and one far outside any tree, each after three WriteBuckets,
// then the scrub's explicit-counter reseal. Checkpoints persist these bytes
// verbatim, so a difference here is a format break, whatever else passes.
func TestMemStoreSealedBytesGolden(t *testing.T) {
	s, err := NewMemStore(4, 64, []byte("golden-sealed-bytes-key"))
	if err != nil {
		t.Fatal(err)
	}
	b := goldenBucket()
	check := func(step string, idx uint64, want string) {
		t.Helper()
		raw, ok := s.RawBucket(idx)
		if !ok {
			t.Fatalf("%s: bucket %d missing", step, idx)
		}
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("%s: bucket %d sealed bytes changed\n got %s\nwant %s", step, idx, got, want)
		}
	}
	afterThreeWrites := []struct {
		idx  uint64
		want string
	}{
		{0,
			"0000000000000003c73e75b53fe873a665b88c95c31f3f4d891201c942ceb5d9" +
				"d48e28441075ecaaf7e14b2dad8d27a319d6afe9de49837c5cc8feda0f5af0b6" +
				"3bc62a3e4e503ae355b96461df45d19fc0514884d123656d540e8e0617071781" +
				"d093d8d46472381bc7bf88b089abf0745cc1864f161d831d4bac7f318c337185" +
				"232897d63ec3717a75b65b3712228db1b0eef37f2a3575903c5794ff06e879cf" +
				"d65807fc60254084684a1eac34c2a568402aff06c3abd20c39557d885d618ac6" +
				"02f748a6ba08c2ef9c18aba6c0fac93c741287f35e28174d4964a51129675424" +
				"2eca7b00f7dcd22a905b0612b2ef566ea59f9339796dc77faac530fd6048a6fd" +
				"0d2f14d28061e9302d61ebd6082025945b2805cd161d54320c31f405621f3374" +
				"decb817e4e30046616b3b9c7da0dbca1ab6abfa10cd4973f97081f47c8591391" +
				"3edcc51921104e5d3a65a21cb89c8aa3"},
		{7,
			"00000000000000034b1fdd110d935ae0fed25e9bc16a0defb5179926934434c8" +
				"eff8c1e08e48b958537aba7b7a3be00d34ba4d3e9262efe941c947cecbb327c3" +
				"73a69de0d5730d3fa35b1e2ff6c7fd84e5bf69ac93bbb14b95f536f5be8a4b2e" +
				"06f662d467399434e9c60c7502a17745e6b0ef72883c39a9da89c8ec2e8425b5" +
				"71cc769d18642cedce3a3054a25548142009bfc728ea9ce2f3669238bbdd58cb" +
				"e0fd9bb3b8174e5315c582104f00225fd8127a0a6c6450e08a667288716807ea" +
				"b54f6e2c723b6030427374ff347f43179da5bc82526ecaa009b0c0852bd1f719" +
				"a73edb8b40462010f52f70b73bb1b0e8ecd6a285a4a83439c9034a50caf1792c" +
				"e4203f5770186c00e2a2379c15d77a381534fd56e1b03d6feab63fb92dd75040" +
				"a70f64033da270b80fd903dee078a576110dd8dcc508bd51409fc076b6e312b8" +
				"6bcb66d6e1c2dda4a75dac0049c2dc76"},
		{1 << 40,
			"00000000000000030c2f090e55335442e13d55335ca29a5e427d9ba80c085e63" +
				"d2b71b6be3e20cf3a9989927e1f9e81781ac5e7dea791b15658b96dfb11321ec" +
				"6eb03273fbc6b85a918410553dcc797d0439aabac68d19041c19fc4aed9d7253" +
				"6ddd4fef1dfa44e3388db65711478b0508076694c7a8d8922bf2c51d69ae56cb" +
				"c9a5dd9f2f689751ddab13fff494eb480bc25dce40fa90614b6eb36f2a4b2ce7" +
				"c957d84969649af4fe6a65ae095795cd306f5854cf93ae7de4dbd8ba42d0d5d4" +
				"db0bef9672a92c196d6ee6b51bd7324e62529a5b59f394796d7d5afe612b2d90" +
				"67fe4273f2a32f84eb477f5159bbedd9b4b9962800a4009b6514d22c391aed76" +
				"c7f90f05992a2f47810d06a150d6b499b5b140477af38ec84258fd77ce47c8d6" +
				"82272c08a0e6b6e3c2d18d783fbf4cd19582e78322fe92df95554629c3edf78b" +
				"1ee5a97d7dd7875cc7072cffcc25a5aa"},
	}
	for _, g := range afterThreeWrites {
		for i := 0; i < 3; i++ {
			if err := s.WriteBucket(g.idx, b); err != nil {
				t.Fatal(err)
			}
		}
		check("WriteBucket x3", g.idx, g.want)
	}
	if err := s.PutBucketAt(7, b, 9); err != nil {
		t.Fatal(err)
	}
	check("PutBucketAt counter 9", 7,
		"0000000000000009e9c60c7502a17744e6b0ef72883c39acdb8dcfe6239436a3"+
			"68d069bf3d4c07c3ff0e076e9f150b526945f0957db2c7bc9202f552d6ad2bbd"+
			"9981e4313d9fc5dd8451158a0c0d3f1671bed5b8d9cceb5e06f1e205fab78874"+
			"cc23014d163b6030427374ff347f43179da5bc82526ecaa009b0c0852bd1f719"+
			"a73edb8b40462010f52f70b73bb1b0e8ecd6a285a4a8343936fcb5af350e86d3"+
			"e4203f5770186c00e2a2379ccb7ac4d71534fd56e1a03d6f99de50cb59f72021"+
			"de630b6259a270b80fd903dee078a576110dd8dcc508bd51409fc076b6e312b8"+
			"6bcb66d6e1c2dda4c187adba7bfa8be8da71d0219adab45efe07882ce64a6ab6"+
			"48e459cfd27ca0f2b879eba49250f752ee13a0d3d02d77cd63afebbf4ebf5835"+
			"b6041cd1d3d6a9b63456975d569b773653aff3f151ffc8f2967db30d8c641a4d"+
			"7a7985d388d9b49c08cbe05f25bbeb39")
}

// TestMemStoreBucketIndicesAscending: the arena hands out slots in
// first-touch order, but BucketIndices must still list tree-range and huge
// indices in ascending order, each once, however they arrived.
func TestMemStoreBucketIndicesAscending(t *testing.T) {
	s, _ := NewMemStore(2, 16, []byte("k"))
	written := []uint64{1 << 40, 9, 0, ^uint64(0), denseLimit, 70000, denseLimit - 1, 3, 1<<40 - 1, 9, 0}
	for _, idx := range written {
		if err := s.WriteBucket(idx, NewBucket(2)); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{0, 3, 9, 70000, denseLimit - 1, denseLimit, 1<<40 - 1, 1 << 40, ^uint64(0)}
	if got := s.BucketIndices(); !slices.Equal(got, want) {
		t.Fatalf("BucketIndices = %v, want %v", got, want)
	}
	if c := s.Counter(9); c != 2 {
		t.Fatalf("bucket 9 written twice has counter %d", c)
	}
}

// TestMemStoreRawRoundTrip covers the checkpoint surface of the arena:
// RawBucket hands out a copy, RestoreRaw materialises a bucket in a store
// that never wrote it, and an absent bucket stays absent to every accessor.
func TestMemStoreRawRoundTrip(t *testing.T) {
	src, _ := NewMemStore(4, 64, []byte("k"))
	b := goldenBucket()
	for _, idx := range []uint64{5, 1 << 40} {
		if err := src.WriteBucket(idx, b); err != nil {
			t.Fatal(err)
		}
		raw, ok := src.RawBucket(idx)
		if !ok {
			t.Fatalf("bucket %d missing", idx)
		}
		kept := append([]byte(nil), raw...)
		for i := range raw {
			raw[i] ^= 0xff
		}
		if _, err := src.ReadBucket(idx); err != nil {
			t.Fatalf("mutating RawBucket's result reached the store: %v", err)
		}

		dst, _ := NewMemStore(4, 64, []byte("k"))
		if err := dst.RestoreRaw(idx, kept); err != nil {
			t.Fatal(err)
		}
		got, err := dst.ReadBucket(idx)
		if err != nil {
			t.Fatalf("restored bucket %d does not verify: %v", idx, err)
		}
		if got.Counter != 1 || got.Slots[0].Addr != 1 || !bytes.Equal(got.Slots[0].Data, b.Slots[0].Data) {
			t.Fatalf("restored bucket %d decodes to %+v", idx, got)
		}
		kept[0] ^= 0xff
		if _, err := dst.ReadBucket(idx); err != nil {
			t.Fatalf("RestoreRaw kept the caller's buffer: %v", err)
		}
		if err := dst.RestoreRaw(idx, kept[1:]); err == nil {
			t.Fatal("short raw bucket accepted")
		}
	}
	for _, idx := range []uint64{6, 1<<40 + 1} {
		if _, ok := src.RawBucket(idx); ok || src.Corrupt(idx) || src.Counter(idx) != 0 {
			t.Fatalf("never-written bucket %d reported present", idx)
		}
	}
	if got := src.BucketIndices(); !slices.Equal(got, []uint64{5, 1 << 40}) {
		t.Fatalf("probing absent buckets materialised them: %v", got)
	}
}

// TestMemStoreSlabGrowthKeepsBuckets: a sealed bucket never moves. Fifty
// thousand later first touches grow the index several times and open a
// couple of hundred slabs; the early buckets must keep their bytes, their
// place in memory (reseal in place depends on it) and their MACs.
func TestMemStoreSlabGrowthKeepsBuckets(t *testing.T) {
	s, _ := NewMemStore(2, 16, []byte("k"))
	b := NewBucket(2)
	b.Slots[1] = Block{Addr: 7, Leaf: 3, Data: []byte("sixteen byte blk")}
	early := []uint64{0, 2, 1 << 40}
	before := make([][]byte, len(early))
	for i, idx := range early {
		if err := s.WriteBucket(idx, b); err != nil {
			t.Fatal(err)
		}
		before[i] = s.sealed(idx)
	}
	snap := make([][]byte, len(early))
	for i := range early {
		snap[i] = append([]byte(nil), before[i]...)
	}
	for n := uint64(0); n < 50000; n++ {
		idx := 3 + n
		if n%1000 == 999 {
			idx = 1<<41 - n // far buckets arriving in descending order
		}
		if err := s.WriteBucket(idx, NewBucket(2)); err != nil {
			t.Fatal(err)
		}
	}
	for i, idx := range early {
		after := s.sealed(idx)
		if &after[0] != &before[i][0] {
			t.Fatalf("bucket %d moved in memory", idx)
		}
		if !bytes.Equal(after, snap[i]) {
			t.Fatalf("bucket %d changed under later first touches", idx)
		}
		got, err := s.ReadBucket(idx)
		if err != nil || got.Slots[1].Addr != 7 || !bytes.Equal(got.Slots[1].Data, b.Slots[1].Data) {
			t.Fatalf("bucket %d after growth: %+v, %v", idx, got, err)
		}
	}
	if n := len(s.BucketIndices()); n != len(early)+50000 {
		t.Fatalf("%d buckets listed, want %d", n, len(early)+50000)
	}
}

func TestStashBasics(t *testing.T) {
	s := NewStash(2)
	if err := s.Put(Block{Addr: DummyAddr}); err == nil {
		t.Fatal("dummy accepted")
	}
	if err := s.Put(Block{Addr: 1, Leaf: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Block{Addr: 2, Leaf: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Block{Addr: 3, Leaf: 3}); !errors.Is(err, ErrStashOverflow) {
		t.Fatalf("overflow: %v", err)
	}
	// Replacing an existing entry is always allowed.
	if err := s.Put(Block{Addr: 1, Leaf: 9}); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
	b, ok := s.Get(1)
	if !ok || b.Leaf != 9 {
		t.Fatalf("Get = %+v %v", b, ok)
	}
	if _, ok := s.Remove(1); !ok || s.Len() != 1 {
		t.Fatal("remove failed")
	}
	n := 0
	s.Range(func(Block) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Range visited %d", n)
	}
	s.Range(func(Block) bool { return false }) // early stop must not panic
}

func TestPosMaps(t *testing.T) {
	for _, pm := range []PositionMap{NewSparsePosMap(), NewShardedPosMap(4)} {
		if _, ok := pm.Get(5); ok {
			t.Fatal("unmapped address reported mapped")
		}
		pm.Set(5, 77)
		if l, ok := pm.Get(5); !ok || l != 77 {
			t.Fatalf("Get = %d %v", l, ok)
		}
		pm.Set(5, 78)
		if l, _ := pm.Get(5); l != 78 {
			t.Fatal("overwrite lost")
		}
		if pm.Len() != 1 {
			t.Fatalf("Len = %d", pm.Len())
		}
	}
}
