package serve

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// dialScript runs a Client over a net.Pipe whose server end the test
// scripts: the hello is read and answered with credit and a 64-byte block.
func dialScript(t testing.TB, credit uint16) (*Client, net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	acked := make(chan error, 1)
	go func() {
		_, err := ReadFrame(srv)
		if err == nil {
			err = WriteFrame(srv, HelloAck{Credit: credit, BlockSize: 64}.Encode())
		}
		acked <- err
	}()
	cl, err := newClient(cli, "script")
	if err == nil {
		err = <-acked
	}
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv
}

// readRequests decodes every request frame the client writes to srv onto
// the returned channel, which closes when srv's reads fail. It never
// blocks the client: the channel holds up to n requests.
func readRequests(srv net.Conn, n int) <-chan Request {
	out := make(chan Request, n)
	go func() {
		defer close(out)
		for {
			payload, err := ReadFrame(srv)
			if err != nil {
				return
			}
			m, _ := Decode(payload)
			if req, ok := m.(Request); ok {
				out <- req
			}
		}
	}()
	return out
}

// TestClientFailsOnStrayReply: the server answers a connection in request
// order, so a reply that is not for the oldest request, or a frame that is
// not a Response, is a broken connection. Every Do then returns an error
// within a second — the ones waiting for their reply and the ones waiting
// for credit — and however much credit the server grants, at most maxCredit
// requests are outstanding.
func TestClientFailsOnStrayReply(t *testing.T) {
	// Each stray frame is built from the IDs still outstanding, oldest first.
	for _, tc := range []struct {
		name  string
		stray func(ids []uint64) []byte
	}{
		{"skipped ID", func(ids []uint64) []byte {
			b, _ := Response{ID: ids[2], Credit: 1000}.Encode()
			return b
		}},
		{"unsent ID", func(ids []uint64) []byte {
			b, _ := Response{ID: ids[len(ids)-1] + 1, Credit: 1000}.Encode()
			return b
		}},
		{"not a Response", func([]uint64) []byte { return HelloAck{Credit: 1000, BlockSize: 64}.Encode() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, srv := dialScript(t, 1000)
			defer srv.Close()
			defer cl.Close()
			const callers = 3 * maxCredit
			errs := make(chan error, callers)
			for i := 0; i < callers; i++ {
				go func() {
					_, err := cl.Do(Request{Addr: uint64(i)})
					errs <- err
				}()
			}
			reqs := readRequests(srv, 2*callers)
			var ids []uint64
			collect := func() {
				for {
					select {
					case req := <-reqs:
						ids = append(ids, req.ID)
					case <-time.After(200 * time.Millisecond):
						return
					}
				}
			}
			collect()
			if len(ids) != maxCredit {
				t.Fatalf("%d requests outstanding at credit 1000, window %d", len(ids), maxCredit)
			}
			// The oldest request's reply frees one place, and exactly one
			// more request takes it.
			ok, _ := Response{ID: ids[0], Credit: 1000}.Encode()
			if err := WriteFrame(srv, ok); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatalf("the oldest request's reply: %v", err)
			}
			collect()
			if len(ids) != maxCredit+1 {
				t.Fatalf("%d requests sent after one reply, want %d", len(ids), maxCredit+1)
			}
			for i, id := range ids {
				if id != ids[0]+uint64(i) {
					t.Fatalf("request IDs on the wire %v: not in order", ids)
				}
			}
			if err := WriteFrame(srv, tc.stray(ids[1:])); err != nil {
				t.Fatal(err)
			}
			limit := time.After(time.Second)
			for i := 1; i < callers; i++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatal("a Do succeeded after a stray reply")
					}
				case <-limit:
					t.Fatalf("%d of %d Dos still blocked 1 s after a stray reply", callers-i, callers-1)
				}
			}
			if _, err := cl.Do(Request{}); err == nil {
				t.Fatal("Do on a failed connection succeeded")
			}
		})
	}
}

// FuzzClientConn drives a Client with arbitrary server bytes after a valid
// HelloAck at any credit, while concurrent callers submit requests. The
// client must not panic, every Do must return once the server closes, and
// no goroutine may be left behind once the client is closed.
func FuzzClientConn(f *testing.F) {
	frame := func(payload []byte, err error) []byte {
		var b bytes.Buffer
		WriteFrame(&b, payload)
		return b.Bytes()
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ok := func(id uint64, credit uint16) []byte {
		return frame(Response{ID: id, Credit: credit, Data: make([]byte, 64)}.Encode())
	}
	f.Add(uint16(1), []byte{})
	f.Add(uint16(1), cat(ok(1, 2), ok(2, 4), ok(3, 8)))
	f.Add(uint16(32), cat(ok(1, 32), ok(3, 32)))
	f.Add(uint16(1000), cat(ok(1, 1000), ok(2, 0)))
	f.Add(uint16(0), ok(2, 1))
	f.Add(uint16(4), cat(ok(1, 4), frame(HelloAck{Credit: 4}.Encode(), nil)))
	f.Add(uint16(4), cat(ok(1, 4), []byte{0, 0, 0, 3, MsgResponse, 0, 1}))
	f.Add(uint16(4), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(4), ok(1, 4)[:9])

	f.Fuzz(func(t *testing.T, credit uint16, in []byte) {
		idle := runtime.NumGoroutine()
		cl, srv := dialScript(t, credit)
		go io.Copy(io.Discard, srv)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 4; j++ {
					if _, err := cl.Do(Request{Addr: uint64(i)}); err != nil {
						return
					}
				}
			}()
		}
		srv.Write(in)
		srv.Close()
		returned := make(chan struct{})
		go func() {
			wg.Wait()
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("Do still blocked 10 s after the server closed")
		}
		if _, err := cl.Do(Request{}); err == nil {
			t.Fatal("Do on a closed connection succeeded")
		}
		cl.Close()
		for limit := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > idle; time.Sleep(time.Millisecond) {
			if time.Now().After(limit) {
				t.Fatalf("%d goroutines 10 s after Close, %d before Dial", runtime.NumGoroutine(), idle)
			}
		}
	})
}
