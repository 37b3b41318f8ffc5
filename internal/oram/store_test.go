package oram

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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

// plainBytes is the serialization MemStore seals: per slot addr(8) || leaf(8)
// || payload zero-padded to blockBytes, a dummy slot all zero after its addr.
func plainBytes(b Bucket, blockBytes int) []byte {
	pt := make([]byte, 0, len(b.Slots)*(slotHeader+blockBytes))
	for _, slot := range b.Slots {
		pt = binary.BigEndian.AppendUint64(pt, slot.Addr)
		pt = binary.BigEndian.AppendUint64(pt, slot.Leaf)
		pt = append(pt, slot.Data...)
		pt = append(pt, make([]byte, blockBytes-len(slot.Data))...)
	}
	return pt
}

// TestMemStoreNoShiftedPadReuse: no AES block of one write of a bucket may
// share its pad with any block of another write — at the same position (the
// classic reuse) or shifted. With known plaintext, for every pair of writes
// and every pair of blocks, ct[i] ^ ct'[j] must not be pt[i] ^ pt'[j]. Under
// format 1 the IV idx(8) || counter(8) was one 128-bit CTR counter, so block
// j+d of write c had the pad of block j of write c+d: this test finds every
// shift d from 1 to the last block there, which a comparison of whole
// ciphertexts could not see.
func TestMemStoreNoShiftedPadReuse(t *testing.T) {
	const z, blockBytes = 4, 64
	const blocks = z * (slotHeader + blockBytes) / 16
	s, _ := NewMemStore(z, blockBytes, []byte("k"))
	var pts, cts [][]byte
	for w := 0; w <= blocks; w++ {
		b := NewBucket(z)
		b.Slots[0] = Block{Addr: 1, Leaf: 5, Data: bytes.Repeat([]byte{byte(w)}, blockBytes)}
		b.Slots[3] = Block{Addr: uint64(w), Leaf: 9, Data: []byte("short payload")}
		if err := s.WriteBucket(7, b); err != nil {
			t.Fatal(err)
		}
		raw, _ := s.RawBucket(7)
		pts, cts = append(pts, plainBytes(b, blockBytes)), append(cts, raw[8:8+blocks*16])
	}
	reused := map[int]bool{}
	x := make([]byte, 16)
	for c := range cts {
		for c2 := c + 1; c2 < len(cts); c2++ {
			for i := 0; i < blocks; i++ {
				for j := 0; j < blocks; j++ {
					subtle.XORBytes(x, cts[c][16*i:16*i+16], cts[c2][16*j:16*j+16])
					subtle.XORBytes(x, x, pts[c][16*i:16*i+16])
					subtle.XORBytes(x, x, pts[c2][16*j:16*j+16])
					if [16]byte(x) == [16]byte{} {
						reused[i-j] = true
					}
				}
			}
		}
	}
	for d := -blocks; d <= blocks; d++ {
		if reused[d] {
			t.Errorf("shift %d: a block of one write shares its pad with a block %d places on in another", d, d)
		}
	}
}

// TestMemStoreKeyReachesCipher: every byte of the key must reach the bucket
// cipher. The cluster hands its members "sd0|" + key and the like, and
// format 1 took the first 16 bytes of that as the AES key, so two cluster
// keys agreeing on a 12-byte prefix encrypted identically.
func TestMemStoreKeyReachesCipher(t *testing.T) {
	k1 := bytes.Repeat([]byte{0x5a}, 32)
	k2 := append([]byte(nil), k1...)
	k2[31] ^= 1
	var cts [2][]byte
	for i, k := range [][]byte{k1, k2} {
		s, err := NewMemStore(4, 64, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBucket(7, goldenBucket()); err != nil {
			t.Fatal(err)
		}
		raw, _ := s.RawBucket(7)
		cts[i] = raw[8 : 8+4*(slotHeader+64)]
	}
	if bytes.Equal(cts[0], cts[1]) {
		t.Fatal("keys differing in their last byte seal a bucket to the same ciphertext")
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
		idx %= nonceFieldLimit
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

	// Index and counter are 48-bit nonce fields: the first value past either
	// is refused by every call that would seal under it.
	b := NewBucket(2)
	const last = nonceFieldLimit - 1
	if err := s.PutBucketAt(last, b, last); err != nil {
		t.Fatalf("largest index at largest counter refused: %v", err)
	}
	raw, _ := s.RawBucket(last)
	for what, err := range map[string]error{
		"WriteBucket at index 2^48":       s.WriteBucket(nonceFieldLimit, b),
		"PutBucketAt at index 2^48":       s.PutBucketAt(nonceFieldLimit, b, 1),
		"RestoreRaw at index 2^48":        s.RestoreRaw(nonceFieldLimit, raw),
		"PutBucketAt at counter 2^48":     s.PutBucketAt(5, b, nonceFieldLimit),
		"WriteBucket past counter 2^48-1": s.WriteBucket(last, b),
	} {
		if err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if _, ok := s.RawBucket(nonceFieldLimit); ok || s.Counter(last) != last {
		t.Fatal("a refused call changed the store")
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

// goldenSealed pins the sealed bytes of goldenBucket() under the key
// "golden-sealed-bytes-key": a root bucket, a tree bucket and one far outside
// any tree, each after three WriteBuckets, then the scrub's explicit-counter
// reseal.
var goldenSealed = []struct {
	step         string
	idx, counter uint64
	sealed       string
}{
	{"WriteBucket x3", 0, 3,
		"0000000000000003a9c1aa064bb7b470bbbb23a71c3d029bf343d38ec3e8ee53" +
			"aa4a381e0fb545fcc4eb7dafd7d3095b9c09a558221e0072ceba72567a38ba45" +
			"65a22ad7f9c1424711fa1dae85dbb3a221ae56780ec75ff4598dbed307aa2f79" +
			"a51efb2116adadd59908628ed07d70b941f52083be5451a5c454e440de73328c" +
			"139e2db9b9031af85ee1886ad908eef387e3d0e5d93a1787b33408410da5ed77" +
			"6ad4eb2f82684ccb26ce9d45c38eb6cfa4418285de2ddb99f486ea838ae256d9" +
			"cbb0d4bd1c59a351bbc3e69720ef81a7c41398a2ff452018a9727d454e3a7bdf" +
			"87cc56269f53c03e02134cef039f8587a03a86a2e549647521ab0dfedde1c09b" +
			"b7fc1a91912e40f1b15bd1c2e2bf380f3e6c091d3c2bce1b6fafc06a50a3aa58" +
			"e806c5dc5c709ad1c9a9ab24da5d3d8c020a8965a97579e008a9fadc785bc3b3" +
			"2cb1f8e203bfe555b88815ccf23a34db7aeb6136"},
	{"WriteBucket x3", 7, 3,
		"0000000000000003c8e9362aa24b5b232cd95b78979403b5482b6211fed3f1bd" +
			"6d37ab77d70d3fd5840fe8f414017eea4fdf7fdd1bb3aff12942a9c6943d05b0" +
			"33a99cccc317752e6b6c77047eaf934b14737cc9adda8ec9d319f9659c67573f" +
			"bd7b3a026303c63f2ba782312e3c6571313a00dd0de46ff48f314ed580bd8069" +
			"47f5694b8543d4fb3700f46355819fafeba2b1857efbbe69eca1183cb6460e17" +
			"e279614e908316fb7fb61777f5af45e0827ee5c88f606889064337fe4f66d8f6" +
			"774511fb7844c3c93c9682ea9c354d353f250aff1c364279be2647f526d4271d" +
			"f67f649b5e9aa60449087750a0cf0e16d8e2e325cee3d29c717bde3118d00599" +
			"17f5cc2ffdeef76bc7c0209490f8b78748bf0c85769d83e60d0c05cea9279a81" +
			"76cf4de9b1552e28b81a00077d743d89ce42a69173033af22cbd8ddf2bcfa6d9" +
			"98753c5db9524a33a73b910b9e8af579453cd34b"},
	{"WriteBucket x3", 1 << 40, 3,
		"00000000000000036a5efc90f354afed37c87b7fce04d56f6f30e0fef66cf59b" +
			"1d9df121c28a6d664ca3c2e2942787d8eccf232e3e3e34320cdac660fdb73e64" +
			"a5964876314906eefc85d3f10e144d91b743a970d9404fa02d24b237a0547ffc" +
			"5a789376fa6e278f38d325e37881c5a1685791b4ebe76293c81c0059aba17402" +
			"dc435e75b5f7e4b54038e433cab30e86d9f1bcdb964e771ac9e99ab42f1874be" +
			"aa87b00c6a2ef6c787ac7b5bb1267ab0d40ed8293bdf97d964fb8a13c69aac53" +
			"c645a0bfc69e6ebf55e0953057969397dea18f5c52261b7b0f6f2c72e51c7a43" +
			"f80eb57538bacc743f198ce777cadf4a5e6a0af2eb5d3a3346d229079c0d73ce" +
			"3a2d68adfb663e6ce37ce33043fa8e5d11527531760bdf9c0fac4b3e7866d1b8" +
			"2d68c07b53c834850684d5084f3efcc389aebc293b640c1c85e1a757bc957ea9" +
			"47cd225cd82ce2ad567da713832e5189ecd6f3b6"},
	{"PutBucketAt counter 9", 7, 9,
		"000000000000000949ce5e4588f56dd8e4d4ff9f3028e53ffc8f1b545cda6642" +
			"5564e6f31535a4ce37fffb7be41ebb601ed60082e07754a707c1c2e0582e46b1" +
			"03f76e2fc07dbcdbd0b981c46a1ff0b233181d818045347cde6db1480fc1bcc5" +
			"28e1f7f6c0f2524854bc1cf4b9795b7d7365385509d39aa973794b35c781938d" +
			"d7fa5f079a1020f962b03b3d2c95fff3f662f31dc535735f010f1b0a042751a5" +
			"caf568073b257ba7394f367f88a59f05d83d513b8f2f731059db2dc8ca979cd4" +
			"e141573aa0071c8053aad8f34ed1f0953fc0e5c24f5ef61e81efeda882b890b5" +
			"34b0398d5c5571c45e0fed059bf612b7f896ebd8a7a8c6e1cbe6b6b01c938d6e" +
			"ba0dbd6c68545d900682c6070c4a24cbe3236e41ce62d440b7944bd7a18f64d8" +
			"acc44f82edf712a12c68b5f3010931e06fe2a0d4262ca17ebaec88d6fe9b063b" +
			"094098b51ec0a3df589a8d24ae181d43a31fe8b4"},
}

// TestMemStoreSealedBytesGolden pins counter || ciphertext || tag. Checkpoints
// persist these bytes verbatim, so a difference here is a format break,
// whatever else passes. RestoreRaw of each into a fresh store opens to the
// golden bucket under its counter; the same bytes cut to the length the
// store sealed before AES-GCM (an 8-byte tag) are refused.
func TestMemStoreSealedBytesGolden(t *testing.T) {
	key := []byte("golden-sealed-bytes-key")
	s, err := NewMemStore(4, 64, key)
	if err != nil {
		t.Fatal(err)
	}
	b := goldenBucket()
	for _, g := range goldenSealed {
		if g.counter == 3 {
			for i := 0; i < 3; i++ {
				if err := s.WriteBucket(g.idx, b); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := s.PutBucketAt(g.idx, b, g.counter); err != nil {
			t.Fatal(err)
		}
		raw, _ := s.RawBucket(g.idx)
		if got := hex.EncodeToString(raw); got != g.sealed {
			t.Errorf("%s: bucket %d sealed bytes changed\n got %s\nwant %s", g.step, g.idx, got, g.sealed)
		}

		fresh, _ := NewMemStore(4, 64, key)
		if err := fresh.RestoreRaw(g.idx, raw); err != nil {
			t.Fatalf("%s: bucket %d refused: %v", g.step, g.idx, err)
		}
		got, err := fresh.ReadBucket(g.idx)
		if err != nil || got.Counter != g.counter || !bytes.Equal(plainBytes(got, 64), plainBytes(b, 64)) {
			t.Errorf("%s: restored bucket %d opens to counter %d (%v)", g.step, g.idx, got.Counter, err)
		}
		if err := fresh.RestoreRaw(g.idx, raw[:len(raw)-4]); err == nil {
			t.Errorf("%s: bucket %d of the pre-GCM length accepted", g.step, g.idx)
		}
	}
}

// TestMemStoreFormat2Layout rebuilds one golden seal from the standard
// library alone, so the layout is stated once in executable form: AES-128 key
// SHA-256("sdimm/bucket/v2|" || key)[:16], nonce idx(6) || counter(6), the
// 8-byte index as AAD, a 12-byte tag, the 8-byte counter in front.
func TestMemStoreFormat2Layout(t *testing.T) {
	g := goldenSealed[3]
	kd := sha256.Sum256([]byte("sdimm/bucket/v2|golden-sealed-bytes-key"))
	blk, _ := aes.NewCipher(kd[:16])
	gcm, _ := cipher.NewGCMWithTagSize(blk, 12)
	idx := binary.BigEndian.AppendUint64(nil, g.idx)
	ctr := binary.BigEndian.AppendUint64(nil, g.counter)
	nonce := append(append([]byte(nil), idx[2:]...), ctr[2:]...)
	raw := gcm.Seal(ctr, nonce, plainBytes(goldenBucket(), 64), idx)
	if got := hex.EncodeToString(raw); got != g.sealed {
		t.Fatalf("format 2 as documented seals bucket %d at counter %d to\n%s\nthe store to\n%s", g.idx, g.counter, got, g.sealed)
	}
}

// TestMemStorePutBucketAtNonceDiscipline: PutBucketAt is the one
// caller-chosen counter, and under GCM a repeated (idx, counter) with
// different plaintext gives up both plaintexts' XOR and the tag key. While
// the stored bucket verifies, only a larger counter is taken; when it is
// absent or does not verify — whether its ciphertext or its counter bytes
// took the damage — the rebuild may name any counter, and with the original
// plaintext reproduces the original bytes.
func TestMemStorePutBucketAtNonceDiscipline(t *testing.T) {
	s, _ := NewMemStore(4, 64, []byte("k"))
	b, other := goldenBucket(), NewBucket(4)
	if err := s.PutBucketAt(7, b, 5); err != nil {
		t.Fatalf("absent bucket at counter 5: %v", err)
	}
	healthy, _ := s.RawBucket(7)
	for _, c := range []uint64{s.Counter(7), 4, 0} {
		if err := s.PutBucketAt(7, other, c); err == nil {
			t.Fatalf("healthy bucket at counter 5 resealed at counter %d", c)
		}
	}
	if now, _ := s.RawBucket(7); !bytes.Equal(now, healthy) {
		t.Fatal("a refused PutBucketAt changed the stored bucket")
	}
	for name, damage := range map[string]func(raw []byte){
		"ciphertext":         func(raw []byte) { raw[8] ^= 1 },
		"tag":                func(raw []byte) { raw[len(raw)-1] ^= 1 },
		"counter, lowered":   func(raw []byte) { raw[7] = 2 },
		"counter, raised":    func(raw []byte) { raw[7] = 9 },
		"counter, past 2^48": func(raw []byte) { raw[0] = 0x80 },
	} {
		damage(s.sealed(7))
		if _, err := s.ReadBucket(7); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%s damage: bucket still opens: %v", name, err)
		}
		if err := s.PutBucketAt(7, b, 5); err != nil {
			t.Fatalf("%s damage: rebuild at the lockstep counter refused: %v", name, err)
		}
		if now, _ := s.RawBucket(7); !bytes.Equal(now, healthy) {
			t.Fatalf("%s damage: rebuild did not reproduce the pre-corruption bytes", name)
		}
	}
	if err := s.PutBucketAt(7, other, 6); err != nil {
		t.Fatalf("healthy bucket at a larger counter: %v", err)
	}
}

// FuzzMemStoreRestoreRaw feeds RestoreRaw arbitrary bytes of the sealed
// length and of wrong ones, the pre-GCM length (a 4-byte shorter tag)
// among them. It must never panic, a wrong length or an index past the
// nonce field is an error, and nothing opens afterwards except the bytes a
// seal under this key produced for that index.
func FuzzMemStoreRestoreRaw(f *testing.F) {
	key := []byte("golden-sealed-bytes-key")
	genuine := map[string]bool{}
	for _, g := range goldenSealed {
		raw, _ := hex.DecodeString(g.sealed)
		genuine[fmt.Sprint(g.idx, raw)] = true
		flipped := bytes.Clone(raw)
		flipped[len(flipped)-1] ^= 1
		f.Add(g.idx, raw)
		f.Add(g.idx+1, raw)
		f.Add(g.idx, raw[:len(raw)-1])
		f.Add(g.idx, raw[:len(raw)-4])
		f.Add(g.idx, append(bytes.Clone(raw), 0))
		f.Add(g.idx, flipped)
	}
	f.Add(uint64(1<<48), make([]byte, 340))
	f.Add(uint64(0), []byte{})
	want := plainBytes(goldenBucket(), 64)
	f.Fuzz(func(t *testing.T, idx uint64, raw []byte) {
		s, _ := NewMemStore(4, 64, key)
		err := s.RestoreRaw(idx, raw)
		if len(raw) != 340 || idx >= nonceFieldLimit {
			if err == nil {
				t.Fatalf("bucket %d of %d bytes accepted", idx, len(raw))
			}
			return
		}
		if err != nil {
			t.Fatalf("bucket %d of %d bytes refused: %v", idx, len(raw), err)
		}
		got, err := s.ReadBucket(idx)
		if err != nil {
			return
		}
		if !genuine[fmt.Sprint(idx, raw)] || !bytes.Equal(plainBytes(got, 64), want) {
			t.Fatalf("bucket %d opens from bytes no seal produced: %x", idx, raw)
		}
	})
}

// TestMemStoreBucketIndicesAscending: the arena hands out slots in
// first-touch order, but BucketIndices must still list tree-range and huge
// indices in ascending order, each once, however they arrived.
func TestMemStoreBucketIndicesAscending(t *testing.T) {
	s, _ := NewMemStore(2, 16, []byte("k"))
	written := []uint64{1 << 40, 9, 0, 1<<48 - 1, denseLimit, 70000, denseLimit - 1, 3, 1<<40 - 1, 9, 0}
	for _, idx := range written {
		if err := s.WriteBucket(idx, NewBucket(2)); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{0, 3, 9, 70000, denseLimit - 1, denseLimit, 1<<40 - 1, 1 << 40, 1<<48 - 1}
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
	pm := NewSparsePosMap()
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

// TestMemStoreSealStaysInSlot: on amd64, Go's GCM stores a partial last
// block as 16 bytes, which runs 3, 2 or 1 bytes past a 12-byte tag when the
// plaintext length mod 16 is 1, 2 or 3. Sealing bucket 10 again must leave
// its arena neighbour, bucket 11, as it was: a counter with a high byte set
// shows any zero written over it.
func TestMemStoreSealStaysInSlot(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 2}, {1, 3}, {1, 17}, {4, 64}} {
		z, blockBytes := shape[0], shape[1]
		s, err := NewMemStore(z, blockBytes, []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		b := NewBucket(z)
		if err := s.WriteBucket(10, b); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBucketAt(11, b, 1<<47|5); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBucket(10, b); err != nil {
			t.Fatal(err)
		}
		for _, idx := range []uint64{10, 11} {
			if _, err := s.ReadBucket(idx); err != nil {
				t.Fatalf("Z=%d B=%d: bucket %d after resealing bucket 10: %v", z, blockBytes, idx, err)
			}
		}
	}
}
