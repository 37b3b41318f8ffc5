// Package ctrmode provides an allocation-free AES-CTR keystream primitive.
//
// Stream works a batch at a time: it writes up to batch consecutive counter
// blocks into its pad, encrypts them back to back, and XORs the whole run
// into the message with one subtle.XORBytes. The Encrypt calls of a batch
// do not depend on each other, so the core overlaps their AES rounds; a
// block-at-a-time loop chains pad → XOR → increment and cannot. The pad
// lives in the Stream, so steady-state use allocates nothing, where
// cipher.NewCTR allocates its stream object and buffer per message.
//
// Output is bit-identical to crypto/cipher.NewCTR(b, iv): the full 16-byte
// IV is one big-endian 128-bit counter, incremented once per block, carry
// out of the low 64 bits included; ctrmode_test.go proves it against the
// stdlib over every length and every carry position a batch can meet.
//
// The link, the bucket store and the state directory seal with AES-GCM, so
// the package's one user is the benchmark's crypto probe.
package ctrmode

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// BlockSize is the only cipher block size supported (AES).
const BlockSize = 16

// batch is how many keystream blocks are produced per round of Encrypt
// calls: 8 covers a 320-byte bucket in three rounds and a link frame in
// one, and wider batches measured no faster.
const batch = 8

// Stream holds the reusable scratch for one user of the keystream. The zero
// value is ready to use. Not safe for concurrent use.
type Stream struct {
	pad [batch * BlockSize]byte
}

// XORKeyStream XORs src into dst under the CTR keystream of b starting at
// iv. dst and src must have the same length and must either overlap exactly
// or not at all. iv is read, never written.
func (s *Stream) XORKeyStream(b cipher.Block, iv *[BlockSize]byte, dst, src []byte) {
	if b.BlockSize() != BlockSize {
		panic("ctrmode: cipher block size must be 16")
	}
	// The 128-bit big-endian counter as two words, exactly as crypto/cipher's
	// ctr increments it.
	hi := binary.BigEndian.Uint64(iv[:8])
	lo := binary.BigEndian.Uint64(iv[8:])
	for len(src) > 0 {
		n := min(len(src), len(s.pad))
		for off := 0; off < n; off += BlockSize {
			binary.BigEndian.PutUint64(s.pad[off:], hi)
			binary.BigEndian.PutUint64(s.pad[off+8:], lo)
			if lo++; lo == 0 {
				hi++
			}
		}
		for off := 0; off < n; off += BlockSize {
			blk := s.pad[off : off+BlockSize]
			b.Encrypt(blk, blk)
		}
		subtle.XORBytes(dst[:n], src[:n], s.pad[:n])
		src = src[n:]
		dst = dst[n:]
	}
}
