package seccomm

import (
	"errors"
	"testing"
)

// TestErrorPathsDistinct drives every link-corruption scenario and checks
// that each returns its own wrapped error, so the fault layer (and an
// operator reading logs) can attribute what happened on the channel. All of
// them also satisfy errors.Is(err, ErrAuth) except truncation, which never
// reaches the MAC check. Tampering and cross-session replay are
// cryptographically indistinguishable (both are "no counter in the window
// authenticates this frame") and share ErrAuth.
func TestErrorPathsDistinct(t *testing.T) {
	cases := []struct {
		name    string
		run     func(t *testing.T) error
		want    error
		notWant []error
	}{
		{
			name: "tampered ciphertext",
			run: func(t *testing.T) error {
				host, dev := pair(t)
				f := host.Seal([]byte("payload"))
				f[0] ^= 0x40
				_, err := dev.Open(f)
				return err
			},
			want:    ErrAuth,
			notWant: []error{ErrOutOfOrder, ErrReplayed, ErrShortMessage},
		},
		{
			name: "truncated frame",
			run: func(t *testing.T) error {
				host, dev := pair(t)
				f := host.Seal([]byte("payload"))
				_, err := dev.Open(f[:MACSize-1])
				return err
			},
			want:    ErrShortMessage,
			notWant: []error{ErrAuth},
		},
		{
			name: "out-of-order counters",
			run: func(t *testing.T) error {
				host, dev := pair(t)
				_ = host.Seal([]byte("first"))
				second := host.Seal([]byte("second"))
				_, err := dev.Open(second)
				return err
			},
			want:    ErrOutOfOrder,
			notWant: []error{ErrReplayed, ErrShortMessage},
		},
		{
			name: "same-session replay",
			run: func(t *testing.T) error {
				host, dev := pair(t)
				f := host.Seal([]byte("payload"))
				if _, err := dev.Open(f); err != nil {
					t.Fatalf("first open: %v", err)
				}
				_, err := dev.Open(f)
				return err
			},
			want:    ErrReplayed,
			notWant: []error{ErrOutOfOrder, ErrShortMessage},
		},
		{
			name: "cross-session replay",
			run: func(t *testing.T) error {
				hostA, devA := pair(t)
				_, devB := pair(t)
				f := hostA.Seal([]byte("payload"))
				if _, err := devA.Open(f); err != nil {
					t.Fatalf("legitimate open: %v", err)
				}
				// Same wire bytes injected into a different session: the
				// MAC key differs, so no counter in the window matches.
				_, err := devB.Open(f)
				return err
			},
			want:    ErrAuth,
			notWant: []error{ErrOutOfOrder, ErrReplayed, ErrShortMessage},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("corrupted frame accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			for _, nw := range tc.notWant {
				if errors.Is(err, nw) {
					t.Fatalf("error %v should not match %v", err, nw)
				}
			}
		})
	}
}

// TestCounterErrorDetails checks that counter diagnoses expose the expected
// and observed counters: a retransmission of the last accepted frame is
// Got == Expected-1.
func TestCounterErrorDetails(t *testing.T) {
	host, dev := pair(t)
	f := host.Seal([]byte("once"))
	if _, err := dev.Open(f); err != nil {
		t.Fatal(err)
	}
	_, err := dev.Open(f)
	var ce *CounterError
	if !errors.As(err, &ce) {
		t.Fatalf("replay did not yield a CounterError: %v", err)
	}
	if ce.Expected != 1 || ce.Got != 0 {
		t.Fatalf("CounterError = expected %d got %d, want 1/0", ce.Expected, ce.Got)
	}
}

// TestResendFromRetransmitsIdentically checks the retransmission primitive:
// rewinding the send counter and resealing the same body reproduces the
// exact wire frame, which the peer (who never saw it) accepts normally.
func TestResendFromRetransmitsIdentically(t *testing.T) {
	host, dev := pair(t)
	base := host.SendCounter()
	first := host.Seal([]byte("lost in flight"))
	if err := host.ResendFrom(base); err != nil {
		t.Fatal(err)
	}
	second := host.Seal([]byte("lost in flight"))
	if string(first) != string(second) {
		t.Fatal("retransmitted frame differs from original")
	}
	if got, err := dev.Open(second); err != nil || string(got) != "lost in flight" {
		t.Fatalf("retransmission rejected: %q %v", got, err)
	}
	if err := host.ResendFrom(host.SendCounter() + 1); err == nil {
		t.Fatal("ResendFrom skipped ahead without error")
	}
}

// TestResyncRealignsAbandonedExchange models an abandoned exchange: the
// host sealed frames the device never accepted and the device sealed a
// response the host never opened. After Resync both directions work again,
// and the abandoned frames are permanently unacceptable.
func TestResyncRealignsAbandonedExchange(t *testing.T) {
	host, dev := pair(t)
	abandoned := host.Seal([]byte("never delivered"))
	lostResp := dev.Seal([]byte("never fetched"))
	Resync(host, dev)
	if _, err := dev.Open(abandoned); !errors.Is(err, ErrReplayed) {
		t.Fatalf("abandoned frame after resync: %v, want ErrReplayed", err)
	}
	if _, err := host.Open(lostResp); !errors.Is(err, ErrReplayed) {
		t.Fatalf("lost response after resync: %v, want ErrReplayed", err)
	}
	fresh := host.Seal([]byte("fresh"))
	if got, err := dev.Open(fresh); err != nil || string(got) != "fresh" {
		t.Fatalf("fresh frame after resync: %q %v", got, err)
	}
	resp := dev.Seal([]byte("fresh resp"))
	if got, err := host.Open(resp); err != nil || string(got) != "fresh resp" {
		t.Fatalf("fresh response after resync: %q %v", got, err)
	}
}
