package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdimm"
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

// eachFrame calls fn with the payload of every whole frame at the front of
// stream and returns what is left, the start of a frame still to come.
func eachFrame(stream []byte, fn func(payload []byte)) []byte {
	for len(stream) >= 4 && len(stream) >= 4+int(binary.BigEndian.Uint32(stream)) {
		size := 4 + int(binary.BigEndian.Uint32(stream))
		fn(stream[4:size])
		stream = stream[size:]
	}
	return stream
}

// creditTap sits between a Client and its connection. It parses every frame
// the client reads, keeping each reply's credit, and every frame the client
// writes, counting each request however many frames one Write carries.
// allowed is the most requests any window received so far let the client
// have sent: the HelloAck's credit, or j plus the credit of reply j. A
// client that obeys each window as it reads it never writes request number
// allowed+1, and the tap reads a window no later than the client does.
type creditTap struct {
	net.Conn
	mu      sync.Mutex
	in, out []byte // partial frames read and written
	credits []uint16
	allowed int
	sent    int
	over    int // requests written past allowed
}

func (c *creditTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = eachFrame(append(c.in, p[:n]...), func(payload []byte) {
		switch m, _ := Decode(payload); m := m.(type) {
		case HelloAck:
			c.allowed = int(m.Credit)
		case Response:
			c.credits = append(c.credits, m.Credit)
			c.allowed = max(c.allowed, len(c.credits)+int(m.Credit))
		}
	})
	return n, err
}

func (c *creditTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = eachFrame(append(c.out, p...), func(payload []byte) {
		if len(payload) > 0 && payload[0] == MsgRequest {
			if c.sent++; c.sent > c.allowed {
				c.over++
			}
		}
	})
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

// replyTap wraps the server end of a connection. It counts the Writes that
// carry replies and decodes every frame in each, keeping the replies in
// wire order; bad notes a Write that is not whole frames.
type replyTap struct {
	net.Conn
	mu      sync.Mutex
	writes  int
	replies []Response
	bad     []string
}

func (c *replyTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	n := len(c.replies)
	if rest := eachFrame(p, func(payload []byte) {
		if resp, err := decodeResponse(payload); err == nil {
			resp.Data = bytes.Clone(resp.Data)
			c.replies = append(c.replies, resp)
		} else if _, err := Decode(payload); err != nil {
			c.bad = append(c.bad, fmt.Sprintf("undecodable frame % x", payload))
		}
	}); len(rest) > 0 {
		c.bad = append(c.bad, fmt.Sprintf("a Write ends %d bytes into a frame", len(rest)))
	}
	if len(c.replies) > n {
		c.writes++
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestServeCoalescesReadyReplies: the server writes the replies that are
// ready in one Write and writes before it would wait. Sequential Dos, each
// waiting for its reply, therefore get exactly one Write per reply, while 32
// callers in flight get fewer Writes than replies. Either way every reply
// arrives whole, in request order, with the block its caller wrote.
func TestServeCoalescesReadyReplies(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	cli, srv := net.Pipe()
	tap := &replyTap{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleConn(tap)
	}()
	cl, err := newClient(cli, "coalesce")
	if err != nil {
		t.Fatal(err)
	}
	block := func(addr int) []byte { return bytes.Repeat([]byte{byte(addr)}, cl.BlockSize()) }

	const seq, callers, each = 64, 32, 20
	for i := 0; i < seq; i++ {
		if resp, err := cl.Do(Request{Addr: uint64(i), Write: true, Data: block(i)}); err != nil || resp.Status != StatusOK {
			t.Fatalf("write %d: %v %s", i, err, StatusString(resp.Status))
		}
	}
	tap.mu.Lock()
	if tap.writes != seq || len(tap.replies) != seq {
		t.Errorf("%d sequential replies took %d Writes (%d replies seen), want one each", seq, tap.writes, len(tap.replies))
	}
	tap.mu.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				addr := (i*each + j) % seq
				resp, err := cl.Do(Request{Addr: uint64(addr)})
				if err != nil || resp.Status != StatusOK || !bytes.Equal(resp.Data, block(addr)) {
					t.Errorf("read %d: %v %s, %d bytes", addr, err, StatusString(resp.Status), len(resp.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	cl.Close()
	<-done

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, b := range tap.bad {
		t.Error(b)
	}
	if len(tap.replies) != seq+callers*each {
		t.Fatalf("%d replies on the wire, want %d", len(tap.replies), seq+callers*each)
	}
	writes := tap.writes - seq
	t.Logf("%d replies to %d callers in flight: %d Writes", callers*each, callers, writes)
	if writes >= callers*each {
		t.Errorf("%d replies to %d callers in flight took %d Writes, want fewer", callers*each, callers, writes)
	}
	for i, resp := range tap.replies {
		if resp.ID != uint64(i+1) {
			t.Fatalf("reply %d has ID %d: not in request order", i, resp.ID)
		}
	}
}

// TestServeWritesBeforeWaiting: the writer sends the replies it has before
// it waits for a result, so a ready reply never waits behind a slow one.
// Here the second request's result is held back until the first reply has
// arrived.
func TestServeWritesBeforeWaiting(t *testing.T) {
	s, err := New(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	cli, srv := net.Pipe()
	defer cli.Close()
	cn := &servConn{conn: srv, credit: initialCredit, tc: s.tenantCounters("wait"),
		free: make(chan *slot, maxCredit), replies: make(chan *slot, maxCredit)}
	results := make(chan sdimm.BatchResult, 2)
	for i := range 2 {
		sl := &cn.slots[i]
		if sl.decision = s.Admission().Admit(time.Minute, false); sl.decision != Accepted {
			t.Fatalf("admission: %v", sl.decision)
		}
		sl.op.Done, sl.id, sl.arrived = results, uint64(i+1), time.Now()
		sl.deadline = sl.arrived.Add(time.Minute)
		cn.replies <- sl
	}
	close(cn.replies)
	results <- sdimm.BatchResult{}
	done := make(chan struct{})
	go s.writeLoop(cn, done)

	br := bufio.NewReader(cli)
	reply := func() Response {
		cli.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := ReadFrame(br)
		if err != nil {
			t.Errorf("no reply: %v", err)
		}
		resp, _ := decodeResponse(payload)
		return resp
	}
	first := reply()
	results <- sdimm.BatchResult{} // the second result, once the first reply is out
	if second := reply(); first.ID != 1 || second.ID != 2 || first.Status != StatusOK || second.Status != StatusOK {
		t.Errorf("replies %+v then %+v, want IDs 1 and 2, both ok", first, second)
	}
	<-done
}
