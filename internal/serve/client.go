package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClientClosed reports Do on a closed client (or one whose connection
// died).
var ErrClientClosed = errors.New("serve: client closed")

// Client is a connection to a Server. Do is safe for concurrent use. The
// server answers a connection's requests in the order it reads them, so the
// client matches replies by position: callers wait in a queue of at most
// maxCredit reusable calls, a caller's place in the queue is its request's
// place on the wire, and the reader answers the oldest call. A reply that
// echoes another request's ID, or a frame that is not a Response, fails the
// connection and every caller. Submissions are paced to the server-granted
// credit window, so a backpressured connection slows its callers instead of
// flooding the server.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader // over conn; owned by readLoop after Dial
	blockSize int
	free      chan *call    // calls no caller holds
	readDone  chan struct{} // closed when readLoop returns

	// wmu orders the callers: one at a time waits for credit, queues its
	// call and writes its request, framed in wbuf. The reader never takes it.
	wmu    sync.Mutex
	nextID uint64
	wbuf   []byte

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when credit frees or the connection fails
	credit  int        // the last advertised window, clamped to [1, maxCredit]
	err     error
	queue   [maxCredit]*call // queue[head], … : the n unanswered requests, in wire order
	head, n int
}

// call carries one request from Do to its reply; one caller holds it at a
// time, from taking it off free to putting it back.
type call struct {
	id   uint64
	resp Response
	err  error
	done chan struct{}
}

// Dial connects and performs the hello handshake. tenant is the
// accounting label carried in telemetry — it buys no priority.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newClient(conn, tenant)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// newClient performs the hello handshake over conn and starts the reader.
func newClient(conn net.Conn, tenant string) (*Client, error) {
	hello, err := Hello{Tenant: tenant}.Encode()
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ack, ok := readMsg(br).(HelloAck)
	if !ok {
		return nil, errors.New("serve: handshake got no HelloAck")
	}
	conn.SetReadDeadline(time.Time{})
	c := &Client{conn: conn, br: br, blockSize: int(ack.BlockSize), credit: clampCredit(ack.Credit),
		free: make(chan *call, maxCredit), readDone: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	for range maxCredit {
		c.free <- &call{done: make(chan struct{}, 1)}
	}
	go c.readLoop()
	return c, nil
}

// clampCredit is an advertised window as the client obeys it.
func clampCredit(credit uint16) int { return min(max(int(credit), 1), maxCredit) }

// BlockSize is the server's block payload size.
func (c *Client) BlockSize() int { return c.blockSize }

// readLoop answers the oldest call with each reply until the connection
// fails. Every frame is read into one buffer; a reply's Data is copied out
// for its caller.
func (c *Client) readLoop() {
	defer close(c.readDone)
	var buf []byte
	for {
		payload, err := readFrame(c.br, buf)
		var resp Response
		if err == nil {
			buf = payload
			if resp, err = decodeResponse(payload); len(resp.Data) > 0 {
				resp.Data = append([]byte(nil), resp.Data...)
			}
		}
		c.mu.Lock()
		if err != nil || c.n == 0 || resp.ID != c.queue[c.head].id {
			c.fail(fmt.Errorf("%w: connection broken or reply out of order", ErrClientClosed))
			c.mu.Unlock()
			return
		}
		cl := c.queue[c.head]
		c.head, c.n = (c.head+1)%maxCredit, c.n-1
		c.credit = clampCredit(resp.Credit)
		cl.resp = resp
		cl.done <- struct{}{}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// fail ends the connection on its first failure: it closes the socket, so a
// write in flight returns, and answers every queued call with err. c.mu is
// held.
func (c *Client) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.conn.Close()
	for ; c.n > 0; c.n-- {
		c.queue[c.head].err = err
		c.queue[c.head].done <- struct{}{}
		c.head = (c.head + 1) % maxCredit
	}
	c.cond.Broadcast()
}

// Do submits one request and blocks for its response, waiting first for
// credit if the window is full. The ID field is assigned by the client.
func (c *Client) Do(req Request) (Response, error) {
	cl := <-c.free
	defer func() { c.free <- cl }()
	c.wmu.Lock()
	req.ID = c.nextID + 1
	frame, err := req.appendFrame(c.wbuf[:0])
	if err != nil {
		c.wmu.Unlock()
		return Response{}, err
	}
	c.mu.Lock()
	for c.err == nil && c.n >= c.credit {
		c.cond.Wait()
	}
	if err := c.err; err != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		return Response{}, err
	}
	c.nextID = req.ID
	cl.id, cl.resp, cl.err = req.ID, Response{}, nil
	c.queue[(c.head+c.n)%maxCredit] = cl
	c.n++
	c.mu.Unlock()
	c.wbuf = frame
	_, err = c.conn.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
		c.mu.Unlock()
	}
	<-cl.done
	return cl.resp, cl.err
}

// Close tears the connection down and returns once the reader has exited;
// in-flight and later Dos fail with ErrClientClosed unless the connection
// had already failed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.fail(ErrClientClosed)
	c.mu.Unlock()
	<-c.readDone
	return nil
}

// Doer submits one request and blocks for its response. *Client implements
// it; tests substitute fakes to exercise BlockStore's retry loop without a
// server.
type Doer interface {
	Do(Request) (Response, error)
}

// BlockStore adapts a Client into a block device: Read/Write over block
// addresses, with bounded retry of shed responses. Deadline and Closing
// responses abort (the caller's probe chain should stop, not spin against a
// draining server).
type BlockStore struct {
	C Doer
	// Ctx, when non-nil, bounds the whole retry loop: a cancelled or
	// expired context aborts immediately — including mid-backoff sleep —
	// with the context's error. Nil keeps the uncancellable behaviour.
	Ctx context.Context
	// DeadlineMS is the per-request budget (0 = server default).
	DeadlineMS uint32
	// Retries bounds re-submissions after StatusShed (default 3).
	Retries int
	// Backoff is the initial retry delay, doubled each attempt (default
	// 2ms).
	Backoff time.Duration
}

// ErrShed reports a request still shed after the retry budget.
var ErrShed = errors.New("serve: shed")

// ErrServerClosing reports a draining server.
var ErrServerClosing = errors.New("serve: server closing")

// ErrDeadline reports a request refused or aborted on deadline.
var ErrDeadline = errors.New("serve: deadline")

// sleepCtx sleeps for d, or returns the context's error the moment ctx is
// cancelled. A nil ctx is an unconditional sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (s *BlockStore) do(req Request) ([]byte, error) {
	retries := s.Retries
	if retries == 0 {
		retries = 3
	}
	backoff := s.Backoff
	if backoff == 0 {
		backoff = 2 * time.Millisecond
	}
	req.DeadlineMS = s.DeadlineMS
	for attempt := 0; ; attempt++ {
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return nil, s.Ctx.Err()
		}
		resp, err := s.C.Do(req)
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case StatusOK:
			return resp.Data, nil
		case StatusShed:
			if attempt >= retries {
				return nil, ErrShed
			}
			if err := sleepCtx(s.Ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
			req.Retry = true
		case StatusDeadline:
			return nil, ErrDeadline
		case StatusClosing:
			return nil, ErrServerClosing
		default:
			return nil, fmt.Errorf("serve: %s: %s", StatusString(resp.Status), resp.Data)
		}
	}
}

// Read fetches one block.
func (s *BlockStore) Read(addr uint64) ([]byte, error) {
	return s.do(Request{Addr: addr})
}

// Write stores one block.
func (s *BlockStore) Write(addr uint64, data []byte) error {
	_, err := s.do(Request{Addr: addr, Write: true, Data: data})
	return err
}
