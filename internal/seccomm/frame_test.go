package seccomm

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// katSessions derives a host/device pair from a fixed shared secret (the
// handshake's ECDH output is random, so the known-answer tests skip it).
func katSessions(t *testing.T, secret []byte, id string) (host, dev *Session) {
	t.Helper()
	host, err := deriveSession(secret, id, true)
	if err != nil {
		t.Fatal(err)
	}
	dev, err = deriveSession(secret, id, false)
	if err != nil {
		t.Fatal(err)
	}
	return host, dev
}

// TestFrameKnownAnswer rebuilds sealed frames without the package's seal
// path: the direction keys are derived by hand, the ciphertext must be the
// standard library's CTR pad XOR and the tag the first MACSize bytes of a
// test-local AES-GCM seal of nothing with the ciphertext as additional data.
// An edit that MACs the plaintext, tags with the pad key, or leaves the
// message counter out of the nonce fails here (counters 1 and 2 catch the
// last; at counter 0 the nonce is all zero either way).
func TestFrameKnownAnswer(t *testing.T) {
	secret := bytes.Repeat([]byte{0x5d}, 32)
	const id = "sdimm-kat"
	host, dev := katSessions(t, secret, id)

	payloads := [][]byte{
		[]byte("access 0x2a, leaf 17, 64 B follow"),
		{},
		bytes.Repeat([]byte{0xa7}, 90),
	}
	for _, dir := range []struct {
		label      string
		from, onto *Session
	}{
		{"upstream", host, dev},
		{"downstream", dev, host},
	} {
		m := hmac.New(sha256.New, secret)
		m.Write([]byte(dir.label))
		m.Write([]byte(id))
		keys := m.Sum(nil)
		padBlock, err := aes.NewCipher(keys[:16])
		if err != nil {
			t.Fatal(err)
		}
		tagBlock, err := aes.NewCipher(keys[16:32])
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(tagBlock)
		if err != nil {
			t.Fatal(err)
		}
		for ctr, pt := range payloads {
			frame := dir.from.Seal(pt)
			if len(frame) != len(pt)+MACSize {
				t.Fatalf("%s frame %d: %d bytes for a %d-byte payload", dir.label, ctr, len(frame), len(pt))
			}
			ct, tag := frame[:len(pt)], frame[len(pt):]

			var iv [aes.BlockSize]byte
			binary.BigEndian.PutUint64(iv[:8], uint64(ctr))
			wantCT := make([]byte, len(pt))
			cipher.NewCTR(padBlock, iv[:]).XORKeyStream(wantCT, pt)
			if !bytes.Equal(ct, wantCT) {
				t.Errorf("%s frame %d: ciphertext %x, want CTR pad XOR %x", dir.label, ctr, ct, wantCT)
			}

			var nonce [12]byte
			binary.BigEndian.PutUint64(nonce[4:], uint64(ctr))
			wantTag := gcm.Seal(nil, nonce[:], nil, wantCT)[:MACSize]
			if !bytes.Equal(tag, wantTag) {
				t.Errorf("%s frame %d: tag %x, want GMAC %x", dir.label, ctr, tag, wantTag)
			}

			if got, err := dir.onto.Open(frame); err != nil || !bytes.Equal(got, pt) {
				t.Errorf("%s frame %d does not open at the peer: %v", dir.label, ctr, err)
			}
		}
	}

	// One frame as literal bytes (computed outside Go, with Python's
	// cryptography package), so the test's own derivation cannot drift
	// together with the package's.
	host, _ = katSessions(t, secret, id)
	const want = "8887276dad896c641dfd7ded54cb9c17cd"
	if got := hex.EncodeToString(host.Seal([]byte("known ans"))); got != want {
		t.Errorf("upstream frame 0 = %s, want %s", got, want)
	}
}

// TestEveryBitFlipRejected flips each bit of one sealed frame, ciphertext
// and tag alike: every variant must fail authentication without moving the
// receiver, which then still accepts the frame as sent.
func TestEveryBitFlipRejected(t *testing.T) {
	host, dev := pair(t)
	pt := []byte("thirty-three bytes of ACCESS body")
	frame := host.Seal(pt)
	for bit := 0; bit < 8*len(frame); bit++ {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := dev.Open(bad); !errors.Is(err, ErrAuth) {
			t.Fatalf("bit %d flipped (byte %d of %d): err = %v, want ErrAuth", bit, bit/8, len(frame), err)
		}
	}
	if got, err := dev.Open(frame); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("genuine frame after %d rejected variants: %v", 8*len(frame), err)
	}
}

// TestDirectionKeysSeparate: a frame sealed upstream must not authenticate
// under the downstream key at the same counter (a reflection of the host's
// own frame back at it).
func TestDirectionKeysSeparate(t *testing.T) {
	host, dev := pair(t)
	up := host.Seal([]byte("upstream frame 0"))
	if _, err := host.Open(up); !errors.Is(err, ErrAuth) {
		t.Fatalf("host opened its own upstream frame with the downstream key: %v", err)
	}
	down := dev.Seal([]byte("downstream frame 0"))
	if _, err := dev.Open(down); !errors.Is(err, ErrAuth) {
		t.Fatalf("device opened its own downstream frame with the upstream key: %v", err)
	}
}
