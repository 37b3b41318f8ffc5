package fault

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestPerfectLinkDelivers(t *testing.T) {
	frames, err := Perfect{}.Deliver(HostToDev, []byte("frame"))
	if err != nil || len(frames) != 1 || string(frames[0]) != "frame" {
		t.Fatalf("perfect link: %v %v", frames, err)
	}
}

func TestSDIMMErrorAttributionAndUnwrap(t *testing.T) {
	e := &SDIMMError{Index: 3, ID: "sdimm-3", Op: "append", Err: ErrStalled}
	if !errors.Is(e, ErrStalled) {
		t.Fatal("SDIMMError does not unwrap to its cause")
	}
	msg := e.Error()
	for _, want := range []string{"sdimm 3", "sdimm-3", "append", "stalled"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, BitFlip: 0.2, Drop: 0.2, Duplicate: 0.2, Replay: 0.1, Stall: 0.05}
	run := func() (Stats, [][]byte) {
		in := NewInjector(cfg)
		l := in.Link(0)
		var all [][]byte
		for i := 0; i < 400; i++ {
			frames, err := l.Deliver(HostToDev, []byte{byte(i), byte(i >> 8), 0xcc, 0xdd})
			if err != nil {
				continue
			}
			all = append(all, frames...)
		}
		return in.Stats(), all
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("delivered frame counts diverged: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if !bytes.Equal(f1[i], f2[i]) {
			t.Fatalf("frame %d diverged", i)
		}
	}
	if s1.Drops == 0 || s1.BitFlips == 0 || s1.Duplicates == 0 || s1.Replays == 0 || s1.Stalls == 0 {
		t.Fatalf("fault classes never fired: %+v", s1)
	}
}

func TestInjectorFaultsNeverMutateSenderFrame(t *testing.T) {
	in := NewInjector(Config{Seed: 9, BitFlip: 1})
	l := in.Link(0)
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	keep := append([]byte(nil), orig...)
	if _, err := l.Deliver(DevToHost, orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, keep) {
		t.Fatal("bit flip reached back into the sender's buffer")
	}
}

func TestInjectorFailStop(t *testing.T) {
	in := NewInjector(Config{Seed: 5})
	if in.IsFailStopped(2) {
		t.Fatal("fresh link reported fail-stopped")
	}
	in.FailStop(2)
	if !in.IsFailStopped(2) {
		t.Fatal("fail-stop not recorded")
	}
	if _, err := in.Link(2).Deliver(HostToDev, []byte("x")); !errors.Is(err, ErrFailStop) {
		t.Fatalf("dead link delivered: %v", err)
	}
	if _, err := in.Link(0).Deliver(HostToDev, []byte("x")); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
}

func TestInjectorStallWindow(t *testing.T) {
	in := NewInjector(Config{Seed: 5})
	in.StallFor(0, 3)
	l := in.Link(0)
	for i := 0; i < 3; i++ {
		if _, err := l.Deliver(HostToDev, []byte("x")); !errors.Is(err, ErrStalled) {
			t.Fatalf("delivery %d during stall: %v", i, err)
		}
	}
	if _, err := l.Deliver(HostToDev, []byte("x")); err != nil {
		t.Fatalf("stall did not clear: %v", err)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	us := time.Microsecond
	want := []time.Duration{50 * us, 100 * us, 200 * us, 400 * us, 800 * us, 1600 * us, 3200 * us, 5 * time.Millisecond, 5 * time.Millisecond}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestHealthStateMachine(t *testing.T) {
	h := NewHealth(3)
	if h.State() != Healthy {
		t.Fatal("fresh tracker not healthy")
	}
	someErr := errors.New("link noise")
	h.Failure(someErr)
	h.Failure(someErr)
	if h.State() != Healthy {
		t.Fatalf("degraded too early: %v", h.State())
	}
	h.Failure(someErr)
	if h.State() != Degraded {
		t.Fatalf("not degraded after 3 consecutive failures: %v", h.State())
	}
	h.Success()
	if h.State() != Healthy || h.Consecutive() != 0 {
		t.Fatalf("success did not recover: %v %d", h.State(), h.Consecutive())
	}
	h.Failure(ErrFailStop)
	if h.State() != Failed {
		t.Fatalf("fail-stop not sticky-failed: %v", h.State())
	}
	h.Success()
	if h.State() != Failed {
		t.Fatal("Failed state not sticky")
	}
	s, f := h.Totals()
	if s != 2 || f != 4 {
		t.Fatalf("totals %d/%d, want 2/4", s, f)
	}
	if h.LastError() == nil {
		t.Fatal("last error lost")
	}
}
