package fault

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sdimm/internal/raceflag"
	"sdimm/internal/seccomm"
)

// scriptLink applies a scripted mutation to each delivery in order; once
// the script runs out, deliveries are perfect.
type scriptLink struct {
	script []func(dir Direction, frame []byte) ([][]byte, error)
}

func (l *scriptLink) Deliver(dir Direction, frame []byte) ([][]byte, error) {
	f := append([]byte(nil), frame...)
	if len(l.script) == 0 {
		return [][]byte{f}, nil
	}
	step := l.script[0]
	l.script = l.script[1:]
	return step(dir, f)
}

func drop(_ Direction, _ []byte) ([][]byte, error) { return nil, nil }
func corrupt(_ Direction, f []byte) ([][]byte, error) {
	f[0] ^= 0x01
	return [][]byte{f}, nil
}
func duplicate(_ Direction, f []byte) ([][]byte, error) {
	return [][]byte{f, append([]byte(nil), f...)}, nil
}
func stall(_ Direction, _ []byte) ([][]byte, error) { return nil, ErrStalled }

func newTransactor(t *testing.T, link Link) (*Transactor, *int) {
	t.Helper()
	dev, err := seccomm.NewDevice("dev-under-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	auth := seccomm.NewAuthority()
	auth.Register(dev)
	host, devSess, err := seccomm.Handshake(nil, dev, auth)
	if err != nil {
		t.Fatal(err)
	}
	serves := 0
	tr := &Transactor{
		Host: host,
		Dev:  devSess,
		Link: link,
		Serve: func(body []byte) ([]byte, error) {
			serves++
			return append([]byte("echo:"), body...), nil
		},
		Retry: RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}},
	}
	return tr, &serves
}

func TestExchangeOverPerfectLink(t *testing.T) {
	tr, serves := newTransactor(t, nil)
	for i := 0; i < 3; i++ {
		got, err := tr.Exchange([]byte("ping"))
		if err != nil || string(got) != "echo:ping" {
			t.Fatalf("exchange %d: %q %v", i, got, err)
		}
	}
	if *serves != 3 {
		t.Fatalf("handler ran %d times, want 3", *serves)
	}
	if s := tr.Stats(); s.Exchanges != 3 || s.Retries != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestExchangeZeroAlloc is the allocation gate for the fault-free link: once
// the frame buffers have grown, a whole exchange — seal, deliver, open, serve,
// seal, deliver, open — must not touch the heap, whether the transactor was
// given no Link or Perfect{}. Part of `make alloc-gates`.
func TestExchangeZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run without -race")
	}
	for name, link := range map[string]Link{"nil": nil, "Perfect": Perfect{}} {
		tr, _ := newTransactor(t, link)
		resp := make([]byte, 90)
		tr.Serve = func([]byte) ([]byte, error) { return resp, nil }
		body := make([]byte, 33)
		exchange := func() {
			got, err := tr.Exchange(body)
			if err != nil || len(got) != len(resp) {
				t.Fatalf("%s link: exchange: %d bytes, %v", name, len(got), err)
			}
		}
		for i := 0; i < 4; i++ { // grow the scratch
			exchange()
		}
		if n := testing.AllocsPerRun(500, exchange); n != 0 {
			t.Errorf("%s link: Exchange allocates %.1f objects per exchange in steady state, want 0", name, n)
		}
	}
}

// TestExchangeSurvivesEachFault drives every single-fault scenario and
// checks the exchange completes with the handler run exactly once.
func TestExchangeSurvivesEachFault(t *testing.T) {
	cases := []struct {
		name   string
		script []func(Direction, []byte) ([][]byte, error)
	}{
		{"request dropped", []func(Direction, []byte) ([][]byte, error){drop}},
		{"request corrupted", []func(Direction, []byte) ([][]byte, error){corrupt}},
		{"request duplicated", []func(Direction, []byte) ([][]byte, error){duplicate}},
		{"request stalled twice", []func(Direction, []byte) ([][]byte, error){stall, stall}},
		// Request arrives, response leg faulted: the device must NOT
		// re-run the handler on the retransmission.
		{"response dropped", []func(Direction, []byte) ([][]byte, error){nil, drop}},
		{"response corrupted", []func(Direction, []byte) ([][]byte, error){nil, corrupt}},
		{"response duplicated", []func(Direction, []byte) ([][]byte, error){nil, duplicate}},
		{"response stalled", []func(Direction, []byte) ([][]byte, error){nil, stall}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := tc.script
			for i, f := range script {
				if f == nil {
					script[i] = func(_ Direction, fr []byte) ([][]byte, error) { return [][]byte{fr}, nil }
				}
			}
			tr, serves := newTransactor(t, &scriptLink{script: script})
			got, err := tr.Exchange([]byte("ping"))
			if err != nil || string(got) != "echo:ping" {
				t.Fatalf("exchange: %q %v", got, err)
			}
			if *serves != 1 {
				t.Fatalf("handler ran %d times, want exactly 1", *serves)
			}
			// The link must be fully usable afterwards.
			if got, err := tr.Exchange([]byte("again")); err != nil || string(got) != "echo:again" {
				t.Fatalf("follow-up exchange: %q %v", got, err)
			}
			if *serves != 2 {
				t.Fatalf("follow-up handler count %d, want 2", *serves)
			}
		})
	}
}

// TestRetransmissionsAreByteIdentical proves the obliviousness invariant:
// every retry puts the exact same bytes on the wire as the original
// transmission, in both directions.
func TestRetransmissionsAreByteIdentical(t *testing.T) {
	script := []func(Direction, []byte) ([][]byte, error){corrupt, drop, stall}
	tr, _ := newTransactor(t, &scriptLink{script: script})
	seen := map[Direction][][]byte{}
	tr.Tap = func(dir Direction, attempt int, frame []byte) {
		seen[dir] = append(seen[dir], append([]byte(nil), frame...))
	}
	if _, err := tr.Exchange([]byte("sensitive body")); err != nil {
		t.Fatal(err)
	}
	if len(seen[HostToDev]) < 2 {
		t.Fatalf("expected retransmissions, saw %d host frames", len(seen[HostToDev]))
	}
	for dir, frames := range seen {
		for i := 1; i < len(frames); i++ {
			if !bytes.Equal(frames[0], frames[i]) {
				t.Fatalf("%v frame %d differs from original transmission", dir, i)
			}
		}
	}
}

// TestDeviceARQRetransmitsCachedResponse pins the response-lost path: the
// device serves once, the response is dropped, and the retry is answered
// from the device's response cache (stats.Retransmits advances).
func TestDeviceARQRetransmitsCachedResponse(t *testing.T) {
	ok := func(_ Direction, f []byte) ([][]byte, error) { return [][]byte{f}, nil }
	tr, serves := newTransactor(t, &scriptLink{script: []func(Direction, []byte) ([][]byte, error){ok, drop}})
	got, err := tr.Exchange([]byte("once"))
	if err != nil || string(got) != "echo:once" {
		t.Fatalf("exchange: %q %v", got, err)
	}
	if *serves != 1 {
		t.Fatalf("handler ran %d times, want 1", *serves)
	}
	if s := tr.Stats(); s.Retransmits == 0 {
		t.Fatalf("ARQ retransmission not recorded: %+v", s)
	}
}

// TestAbandonmentResyncsAndRecovers exhausts the retry budget, then checks
// the link still works for the next exchange (counters realigned).
func TestAbandonmentResyncsAndRecovers(t *testing.T) {
	var script []func(Direction, []byte) ([][]byte, error)
	for i := 0; i < 5; i++ {
		script = append(script, drop)
	}
	tr, serves := newTransactor(t, &scriptLink{script: script})
	_, err := tr.Exchange([]byte("doomed"))
	if err == nil {
		t.Fatal("exchange succeeded through 5 drops with 5 attempts")
	}
	if !errors.Is(err, ErrNoResponse) {
		t.Fatalf("abandonment cause: %v", err)
	}
	if s := tr.Stats(); s.Abandoned != 1 || s.Resyncs != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Script exhausted: the link is now perfect. The next exchange must
	// succeed even though counters were left mid-flight.
	got, err := tr.Exchange([]byte("after"))
	if err != nil || string(got) != "echo:after" {
		t.Fatalf("post-abandonment exchange: %q %v", got, err)
	}
	if *serves != 1 {
		t.Fatalf("handler ran %d times, want 1 (abandoned exchange never reached it)", *serves)
	}
}

// TestAbandonmentAfterDeviceServed covers the ambiguous case: the device
// processed the request but every response was lost. The exchange fails,
// and the next exchange still works — the handler must not re-run for the
// abandoned request.
func TestAbandonmentAfterDeviceServed(t *testing.T) {
	ok := func(_ Direction, f []byte) ([][]byte, error) { return [][]byte{f}, nil }
	script := []func(Direction, []byte) ([][]byte, error){
		ok, drop, // attempt 0: served, response lost
		ok, drop, // attempts 1..4: retransmission answered from cache, lost again
		ok, drop,
		ok, drop,
		ok, drop,
	}
	tr, serves := newTransactor(t, &scriptLink{script: script})
	if _, err := tr.Exchange([]byte("ambiguous")); err == nil {
		t.Fatal("exchange succeeded despite all responses lost")
	}
	if *serves != 1 {
		t.Fatalf("handler ran %d times for one abandoned exchange, want 1", *serves)
	}
	got, err := tr.Exchange([]byte("next"))
	if err != nil || string(got) != "echo:next" {
		t.Fatalf("post-ambiguity exchange: %q %v", got, err)
	}
	if *serves != 2 {
		t.Fatalf("handler count %d, want 2", *serves)
	}
}

// TestAbandonmentReportsExecuted: an abandoned exchange says whether the
// device ran the handler. With every response dropped it did, and the
// caller must not treat the request as lost; with every request dropped it
// did not.
func TestAbandonmentReportsExecuted(t *testing.T) {
	ok := func(_ Direction, f []byte) ([][]byte, error) { return [][]byte{f}, nil }
	for _, tc := range []struct {
		name     string
		step     []func(Direction, []byte) ([][]byte, error)
		executed bool
	}{
		{"responses dropped", []func(Direction, []byte) ([][]byte, error){ok, drop}, true},
		{"requests dropped", []func(Direction, []byte) ([][]byte, error){drop}, false},
	} {
		var script []func(Direction, []byte) ([][]byte, error)
		for i := 0; i < 5; i++ {
			script = append(script, tc.step...)
		}
		tr, _ := newTransactor(t, &scriptLink{script: script})
		_, err := tr.Exchange([]byte("x"))
		var ab *AbandonedError
		if !errors.As(err, &ab) || ab.Attempts != 5 || !errors.Is(err, ErrNoResponse) {
			t.Fatalf("%s: want an AbandonedError after 5 attempts wrapping ErrNoResponse, got %v", tc.name, err)
		}
		if ab.Executed != tc.executed || Executed(err) != tc.executed {
			t.Errorf("%s: Executed = %v, want %v", tc.name, ab.Executed, tc.executed)
		}
	}
}

// TestLateFaultAfterResponseAccepted pins a nasty interaction: the request
// is duplicated, so the device emits two response frames (the second from
// its ARQ cache); the host authenticates the first, then delivery of the
// surplus frame stalls. The exchange MUST still succeed — failing it would
// wedge the link permanently, because the host's receive counter has
// already consumed the response and no retry can ever be answered.
func TestLateFaultAfterResponseAccepted(t *testing.T) {
	ok := func(_ Direction, f []byte) ([][]byte, error) { return [][]byte{f}, nil }
	script := []func(Direction, []byte) ([][]byte, error){
		duplicate, // request leg: device sees the frame twice → 2 outbound
		ok,        // first response frame arrives; host accepts it
		stall,     // surplus ARQ frame dies on the wire
	}
	tr, serves := newTransactor(t, &scriptLink{script: script})
	got, err := tr.Exchange([]byte("ping"))
	if err != nil || string(got) != "echo:ping" {
		t.Fatalf("exchange: %q %v", got, err)
	}
	if *serves != 1 {
		t.Fatalf("handler ran %d times, want 1", *serves)
	}
	if s := tr.Stats(); s.Retries != 0 {
		t.Fatalf("burned %d retries on an already-answered exchange", s.Retries)
	}
}

func TestFailStopAbortsWithoutBurningRetries(t *testing.T) {
	in := NewInjector(Config{Seed: 3})
	in.FailStop(0)
	tr, serves := newTransactor(t, in.Link(0))
	_, err := tr.Exchange([]byte("dead"))
	if !errors.Is(err, ErrFailStop) {
		t.Fatalf("want ErrFailStop, got %v", err)
	}
	if *serves != 0 {
		t.Fatal("handler ran on a fail-stopped link")
	}
	if s := tr.Stats(); s.Retries != 0 {
		t.Fatalf("burned %d retries on a fail-stopped link", s.Retries)
	}
}

func TestAppErrorNotRetried(t *testing.T) {
	tr, _ := newTransactor(t, nil)
	calls := 0
	tr.Serve = func([]byte) ([]byte, error) {
		calls++
		return nil, errors.New("integrity check failed")
	}
	_, err := tr.Exchange([]byte("poison"))
	var app *AppError
	if !errors.As(err, &app) {
		t.Fatalf("want AppError, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("application failure retried %d times", calls)
	}
	// The device consumed the frame and the host got nothing back, but the
	// link must remain usable.
	tr.Serve = func(body []byte) ([]byte, error) { return body, nil }
	if _, err := tr.Exchange([]byte("recover")); err != nil {
		t.Fatalf("exchange after app error: %v", err)
	}
}

// TestExchangeUnderRandomFaultStorm hammers one transactor with a high
// fault rate and verifies every exchange either completes correctly or
// fails cleanly, with the handler running at most once per exchange.
func TestExchangeUnderRandomFaultStorm(t *testing.T) {
	in := NewInjector(Config{
		Seed: 77, BitFlip: 0.05, Drop: 0.05, Duplicate: 0.05, Replay: 0.03, Stall: 0.02, MACCorrupt: 0.02,
	})
	tr, _ := newTransactor(t, in.Link(0))
	served := 0
	tr.Serve = func(body []byte) ([]byte, error) {
		served++
		return body, nil
	}
	completed := 0
	for i := 0; i < 500; i++ {
		body := []byte{byte(i), byte(i >> 8), 0x5a}
		got, err := tr.Exchange(body)
		if err != nil {
			continue
		}
		completed++
		if !bytes.Equal(got, body) {
			t.Fatalf("exchange %d returned wrong body", i)
		}
	}
	if completed < 450 {
		t.Fatalf("only %d/500 exchanges completed under fault storm", completed)
	}
	if served > 500 {
		t.Fatalf("handler ran %d times for 500 exchanges (double execution)", served)
	}
	t.Logf("storm: %d/500 completed, %d serves, stats %+v, faults %+v",
		completed, served, tr.Stats(), in.Stats())
}
