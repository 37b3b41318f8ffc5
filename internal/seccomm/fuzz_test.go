package seccomm

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to Open, the first parser an attacker on
// the memory channel reaches, on a fixed-secret pair that has already
// exchanged one frame. Whatever arrives, Open must not panic; a rejected
// input leaves the receive counter where it was and is ErrShortMessage or
// an ErrAuth; an accepted one is exactly the frame the host seals next; and
// the next genuine frame still opens.
func FuzzOpen(f *testing.F) {
	secret := bytes.Repeat([]byte{0x3c}, 32)
	const id = "sdimm-fuzz"
	warmup := []byte("frame 0: already consumed")

	host, _ := katSessions(f, secret, id)
	replay := host.Seal(warmup)
	genuine := host.Seal([]byte("frame 1: the one the device expects"))
	future := host.Seal([]byte("frame 2: one ahead"))
	flipped := append([]byte(nil), genuine...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(genuine)
	f.Add(genuine[:len(genuine)-1])
	f.Add(genuine[:MACSize-1])
	f.Add(flipped)
	f.Add(replay)
	f.Add(future)

	f.Fuzz(func(t *testing.T, msg []byte) {
		host, dev := katSessions(t, secret, id)
		if _, err := dev.Open(host.Seal(warmup)); err != nil {
			t.Fatal(err)
		}
		before := dev.RecvCounter()
		pt, err := dev.Open(msg)
		switch {
		case err == nil:
			if sealed := host.Seal(pt); !bytes.Equal(sealed, msg) {
				t.Fatalf("accepted %x, but the host's frame at counter %d is %x", msg, before, sealed)
			}
		case dev.RecvCounter() != before:
			t.Fatalf("rejected frame (%v) moved the receive counter %d -> %d", err, before, dev.RecvCounter())
		case !errors.Is(err, ErrShortMessage) && !errors.Is(err, ErrAuth):
			t.Fatalf("rejected frame: %v, want ErrShortMessage or ErrAuth", err)
		}
		next := []byte("the next genuine frame")
		if got, err := dev.Open(host.Seal(next)); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("next genuine frame after %x: %q, %v", msg, got, err)
		}
	})
}
