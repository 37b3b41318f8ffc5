package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// serveOverPipe runs handleConn on the server end of a net.Pipe and returns
// the client end and a channel closed when the handler returns.
func serveOverPipe(s *Server) (net.Conn, <-chan struct{}) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleConn(srv)
	}()
	return cli, done
}

// waitDepthZero fails unless admission depth falls to zero within 10 s.
func waitDepthZero(t testing.TB, s *Server) {
	t.Helper()
	for limit := time.Now().Add(10 * time.Second); s.Admission().Depth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("admission depth stuck at %d", s.Admission().Depth())
		}
	}
}

// TestServeWindowBound: a client that sends far past its window and reads
// nothing gets at most maxCredit requests admitted on its connection — plus
// the one the reader decoded and holds while it waits for room — and the
// server runs a fixed number of goroutines for it, not one per request.
// Closing the client then ends the handler with admission depth back at 0.
func TestServeWindowBound(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	idle := runtime.NumGoroutine()

	cli, done := serveOverPipe(s)
	hello, err := Hello{Tenant: "flood"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(cli, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(cli); err != nil {
		t.Fatal(err)
	}
	const sent = 8 * maxCredit
	go func() {
		for i := 0; i < sent; i++ {
			b, _ := Request{ID: uint64(i + 1), Addr: uint64(i % 64)}.Encode()
			if WriteFrame(cli, b) != nil {
				return
			}
		}
	}()

	requests := s.Registry().Counter("serve.requests", "tenant", "flood")
	for limit := time.Now().Add(10 * time.Second); requests.Value() < maxCredit+1; time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("only %d requests read in 10 s", requests.Value())
		}
	}
	time.Sleep(100 * time.Millisecond) // room for a reader that would run ahead
	if n := requests.Value(); n > maxCredit+1 {
		t.Errorf("%d of %d requests read from a client that reads nothing, window %d", n, sent, maxCredit)
	}
	if d := s.Admission().Depth(); d > maxCredit {
		t.Errorf("admission depth %d past the connection's window %d", d, maxCredit)
	}
	if g := runtime.NumGoroutine(); g > idle+8 {
		t.Errorf("%d goroutines serving one connection (idle server: %d)", g, idle)
	}

	cli.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running 10 s after the client closed")
	}
	waitDepthZero(t, s)
}

// FuzzServeConn drives the connection handler with arbitrary client bytes:
// hellos, requests, garbage and early closes in any order. The handler must
// not panic, must return once the client closes, must leave admission depth
// at 0, and the server must still shut down.
func FuzzServeConn(f *testing.F) {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		WriteFrame(&b, payload)
		return b.Bytes()
	}
	hello, _ := Hello{Tenant: "fuzz"}.Encode()
	read, _ := Request{ID: 1, Addr: 3}.Encode()
	write, _ := Request{ID: 2, Write: true, Addr: 3, Data: []byte("v")}.Encode()
	retry, _ := Request{ID: 3, Retry: true, Addr: 9, DeadlineMS: 1}.Encode()
	big, _ := Request{ID: 4, Write: true, Addr: 5, Data: make([]byte, 4096)}.Encode()
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	f.Add(frame(hello))
	f.Add(cat(frame(hello), frame(read), frame(write), frame(read)))
	f.Add(cat(frame(hello), frame(retry), frame(big)))
	f.Add(cat(frame(hello), frame(write), []byte{0, 0, 0, 3, 0xff, 0, 1}))
	f.Add(cat(frame(hello), frame(hello)))
	f.Add(cat(frame(read), frame(hello)))
	f.Add(cat(frame(hello), frame(read)[:9]))
	f.Add(cat(frame(hello), []byte{0xff, 0xff, 0xff, 0xff}))
	many := frame(hello)
	for i := 0; i < 3*maxCredit; i++ {
		many = append(many, frame(read)...)
	}
	f.Add(many)

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := New(baseConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		cli, done := serveOverPipe(s)
		go io.Copy(io.Discard, cli) // a client that reads every reply
		cli.Write(in)
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler still running 10 s after the client closed")
		}
		waitDepthZero(t, s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// creditTap sits between a Client and its connection. It parses every frame
// the client reads, keeping each reply's credit, and counts every request
// the client writes (WriteFrame writes one frame a call). allowed is the
// most requests any window received so far let the client have sent: the
// HelloAck's credit, or j plus the credit of reply j. A client that obeys
// each window as it reads it never writes request number allowed+1, and the
// tap reads a window no later than the client does.
type creditTap struct {
	net.Conn
	mu      sync.Mutex
	in      []byte
	credits []uint16
	allowed int
	sent    int
	over    int // requests written past allowed
}

func (c *creditTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = append(c.in, p[:n]...)
	for len(c.in) >= 4 && len(c.in) >= 4+int(binary.BigEndian.Uint32(c.in)) {
		size := 4 + int(binary.BigEndian.Uint32(c.in))
		switch m, _ := Decode(c.in[4:size]); m := m.(type) {
		case HelloAck:
			c.allowed = int(m.Credit)
		case Response:
			c.credits = append(c.credits, m.Credit)
			c.allowed = max(c.allowed, len(c.credits)+int(m.Credit))
		}
		c.in = c.in[size:]
	}
	return n, err
}

func (c *creditTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	if len(p) > 4 && p[4] == MsgRequest {
		if c.sent++; c.sent > c.allowed {
			c.over++
		}
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestServeCreditSlowStart checks the connection window over a real Server:
// credit starts at 1 and doubles on each OK up to maxCredit; it halves,
// never below 1, on a reply under admission pressure (OK or not) and on a
// shed; and a Client never has more requests outstanding than the last
// window it read, here with 48 callers while pressure comes and goes.
func TestServeCreditSlowStart(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	conn, done := serveOverPipe(s)
	tap := &creditTap{Conn: conn}
	cl, err := newClient(tap, "slow-start")
	if err != nil {
		t.Fatal(err)
	}
	adm := s.Admission()

	// credit is the window slow start should give; step makes one request
	// and checks its reply's credit.
	credit := initialCredit
	if tap.allowed != credit {
		t.Fatalf("HelloAck credit %d, want %d", tap.allowed, credit)
	}
	step := func(req Request, pressure bool) byte {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusOK && !pressure {
			credit = min(credit*2, maxCredit)
		} else {
			credit = max(credit/2, 1)
		}
		if int(resp.Credit) != credit {
			t.Fatalf("%s reply (pressure %v): credit %d, want %d", StatusString(resp.Status), pressure, resp.Credit, credit)
		}
		return resp.Status
	}
	write := Request{Addr: 3, Write: true, Data: []byte("w")}
	for i := 0; i < 8; i++ {
		step(write, false)
	}

	// Pressure: admission depth held at the watermark by admits of the
	// test's own. Requests are still accepted and answered OK.
	held := 0
	for ; !adm.Pressure(); held++ {
		if adm.Admit(0, false) != Accepted {
			t.Fatal("admission refused the depth hold")
		}
	}
	for i := 0; i < 8; i++ {
		if st := step(write, true); st != StatusOK {
			t.Fatalf("under pressure: %s, want ok", StatusString(st))
		}
	}
	for ; held > 0; held-- {
		adm.Done(0)
	}
	for i := 0; i < 4; i++ {
		step(write, false)
	}

	// Sheds without pressure: retries spend the retry budget until it is
	// gone, and then they shed.
	retry := write
	retry.Retry = true
	for sheds := 0; sheds < 8; {
		if step(retry, false) == StatusShed {
			sheds++
		}
	}

	// Many callers while pressure comes and goes.
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Microsecond):
			}
			n := 0
			for ; !adm.Pressure(); n++ {
				adm.Admit(0, false)
			}
			time.Sleep(300 * time.Microsecond)
			for ; n > 0; n-- {
				adm.Done(0)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				if _, err := cl.Do(Request{Addr: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled

	cl.Close()
	<-done
	waitDepthZero(t, s)
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.over != 0 {
		t.Errorf("%d of %d requests sent past the window the client had read", tap.over, tap.sent)
	}
	if tap.sent != len(tap.credits) {
		t.Errorf("%d requests sent, %d replies read", tap.sent, len(tap.credits))
	}
}
