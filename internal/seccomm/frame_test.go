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
func katSessions(t testing.TB, secret []byte, id string) (host, dev *Session) {
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
// path: the direction key is derived by hand, and a frame must be a
// test-local standard AES-GCM seal (16-byte tag, no additional data) with
// its tag cut to the first MACSize bytes. An edit that keys a direction
// with the wrong bytes of its expansion, adds additional data, or leaves
// the message counter out of the nonce fails here (counters 1 and 2 catch
// the last; at counter 0 the nonce is all zero either way).
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
		block, err := aes.NewCipher(m.Sum(nil)[:16])
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		for ctr, pt := range payloads {
			frame := dir.from.Seal(pt)
			if len(frame) != len(pt)+MACSize {
				t.Fatalf("%s frame %d: %d bytes for a %d-byte payload", dir.label, ctr, len(frame), len(pt))
			}

			var nonce [12]byte
			binary.BigEndian.PutUint64(nonce[4:], uint64(ctr))
			want := gcm.Seal(nil, nonce[:], pt, nil)[:len(pt)+MACSize]
			if !bytes.Equal(frame, want) {
				t.Errorf("%s frame %d: %x, want AES-GCM %x", dir.label, ctr, frame, want)
			}

			if got, err := dir.onto.Open(frame); err != nil || !bytes.Equal(got, pt) {
				t.Errorf("%s frame %d does not open at the peer: %v", dir.label, ctr, err)
			}
		}
	}

	// One frame as literal bytes (computed outside Go, with Python's
	// cryptography package: AESGCM under the upstream key, nonce 0^96, the
	// 16-byte tag cut to 12), so the test's own derivation cannot drift
	// together with the package's.
	host, _ = katSessions(t, secret, id)
	const want = "c8c0e46295c11dfd83435662b0a667112fccbf6fd9"
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

// TestSealWritesOnlyItsFrame seals every payload length across two AES
// blocks into a dst whose capacity ends exactly at the frame, inside a
// larger buffer: the bytes after the frame must be untouched (they belong
// to whatever the caller keeps there), and the frame must open. Go 1.24's
// amd64 GCM writes up to 3 bytes past a 12-byte tag when the payload ends
// 1-3 bytes into a block, so a direct aead.Seal into dst fails this.
func TestSealWritesOnlyItsFrame(t *testing.T) {
	host, dev := pair(t)
	for n := 0; n <= 2*16+4; n++ {
		pt := bytes.Repeat([]byte{0x3e}, n)
		buf := bytes.Repeat([]byte{0xaa}, n+MACSize+16)
		frame := host.SealAppend(buf[:0:n+MACSize], pt)
		if &frame[0] != &buf[0] {
			t.Fatalf("%d-byte payload: SealAppend reallocated a dst with room for the frame", n)
		}
		for i, b := range buf[n+MACSize:] {
			if b != 0xaa {
				t.Fatalf("%d-byte payload: byte %d after the frame overwritten (%#02x)", n, i, b)
			}
		}
		if got, err := dev.Open(frame); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("%d-byte payload does not open: %v", n, err)
		}
	}
}
