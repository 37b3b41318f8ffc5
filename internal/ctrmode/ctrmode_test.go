package ctrmode

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
)

// batchBytes is one full pad; bucketBytes is the plaintext of a Z=4,
// 64-byte-block bucket, the message the stores encrypt.
const (
	batchBytes  = batch * BlockSize
	bucketBytes = 320
)

// ivBefore returns the IV that sits k blocks before the given 128-bit
// counter value wraps its low word to zero: block k of the keystream is the
// first one produced after the carry.
func ivBefore(hi uint64, k int) (iv [BlockSize]byte) {
	binary.BigEndian.PutUint64(iv[:8], hi)
	binary.BigEndian.PutUint64(iv[8:], -uint64(k))
	return iv
}

// TestMatchesStdlib proves Stream produces exactly the stdlib CTR keystream
// for every length up to two batches and a ragged tail, and for IVs that
// exercise the carry out of each byte — in particular the carry from the
// low 8 bytes (the bucket write counter / link message counter) into the
// high 8, and the wrap of the whole 128 bits, each landing inside the first
// batch, on the boundary between two batches, and inside the second.
func TestMatchesStdlib(t *testing.T) {
	b, err := aes.NewCipher(bytes.Repeat([]byte{0x5a}, 16))
	if err != nil {
		t.Fatal(err)
	}
	ivs := [][BlockSize]byte{
		{},
		{15: 0xff},                   // carry into byte 14 after one block
		{8: 0x00, 9: 0xff, 15: 0xff}, // multi-byte carry
		{0: 0x01, 7: 0xff, 15: 0xfe}, // high half populated
	}
	for _, k := range []int{1, batch / 2, batch - 1, batch, batch + 1, batch + batch/2, 2 * batch} {
		ivs = append(ivs,
			ivBefore(0x12, k),       // 64-bit boundary carry
			ivBefore(0x12ff, k),     // ... rippling into the high word's second byte
			ivBefore(^uint64(0), k), // full 128-bit wraparound
		)
	}
	r := rand.New(rand.NewSource(1))
	var s Stream
	for _, iv := range ivs {
		for n := 0; n <= 2*batchBytes+17; n++ {
			src := make([]byte, n)
			r.Read(src)
			want := make([]byte, n)
			cipher.NewCTR(b, iv[:]).XORKeyStream(want, src)
			got := make([]byte, n)
			ivCopy := iv
			s.XORKeyStream(b, &ivCopy, got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("iv %x len %d: stream diverges from stdlib CTR", iv, n)
			}
			if ivCopy != iv {
				t.Fatalf("iv %x len %d: XORKeyStream mutated the caller's IV", iv, n)
			}
		}
	}
}

// TestInPlace proves dst == src (the way every caller uses it) works, for a
// message inside one batch, one spilling into a second, and a bucket.
func TestInPlace(t *testing.T) {
	b, _ := aes.NewCipher(make([]byte, 16))
	iv := [BlockSize]byte{15: 0xfe}
	r := rand.New(rand.NewSource(2))
	var s Stream
	for _, n := range []int{40, batchBytes + 21, bucketBytes} {
		src := make([]byte, n)
		r.Read(src)
		want := make([]byte, n)
		cipher.NewCTR(b, iv[:]).XORKeyStream(want, src)
		buf := append([]byte(nil), src...)
		s.XORKeyStream(b, &iv, buf, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("len %d: in-place result diverges from stdlib CTR", n)
		}
	}
}

// TestZeroAlloc is the package's own alloc gate: the keystream must be free
// of per-call allocations, or every layer above it inherits them.
func TestZeroAlloc(t *testing.T) {
	b, _ := aes.NewCipher(make([]byte, 16))
	s := new(Stream)
	iv := [BlockSize]byte{7: 0x09}
	for _, n := range []int{80, batchBytes + 21, bucketBytes} {
		buf := make([]byte, n)
		if allocs := testing.AllocsPerRun(200, func() {
			s.XORKeyStream(b, &iv, buf, buf)
		}); allocs != 0 {
			t.Fatalf("XORKeyStream allocates %.1f allocs/op on %d bytes, want 0", allocs, n)
		}
	}
}
