package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
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
