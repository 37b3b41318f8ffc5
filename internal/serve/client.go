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

// Client is a connection to a Server. Do is safe for concurrent use; the
// client paces submissions to the server-granted credit window, so a
// backpressured connection slows its callers instead of flooding the
// server.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader // over conn; owned by readLoop after Dial
	blockSize int

	mu          sync.Mutex
	cond        *sync.Cond
	credit      int
	outstanding int
	nextID      uint64
	pending     map[uint64]chan Response
	err         error
	wmu         sync.Mutex
}

// Dial connects and performs the hello handshake. tenant is the
// accounting label carried in telemetry — it buys no priority.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello, err := Hello{Tenant: tenant}.Encode()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	msg, err := Decode(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake got %T", msg)
	}
	conn.SetReadDeadline(time.Time{})
	c := &Client{
		conn:      conn,
		br:        br,
		blockSize: int(ack.BlockSize),
		credit:    int(ack.Credit),
		pending:   make(map[uint64]chan Response),
	}
	if c.credit < 1 {
		c.credit = 1
	}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop()
	return c, nil
}

// BlockSize is the server's block payload size.
func (c *Client) BlockSize() int { return c.blockSize }

func (c *Client) readLoop() {
	for {
		payload, err := ReadFrame(c.br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		msg, err := Decode(payload)
		if err != nil {
			c.fail(err)
			return
		}
		resp, ok := msg.(Response)
		if !ok {
			c.fail(fmt.Errorf("serve: unexpected %T mid-stream", msg))
			return
		}
		c.mu.Lock()
		if ch, ok := c.pending[resp.ID]; ok {
			delete(c.pending, resp.ID)
			c.outstanding--
			ch <- resp
		}
		if resp.Credit > 0 {
			c.credit = int(resp.Credit)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- Response{ID: id, Status: StatusError, Data: []byte(err.Error())}
	}
	c.outstanding = 0
	c.cond.Broadcast()
}

// Do submits one request and blocks for its response, waiting first for
// credit if the window is full. The ID field is assigned by the client.
func (c *Client) Do(req Request) (Response, error) {
	ch := make(chan Response, 1)
	c.mu.Lock()
	for c.err == nil && c.outstanding >= c.credit {
		c.cond.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.outstanding++
	c.mu.Unlock()

	b, err := req.Encode()
	if err == nil {
		c.wmu.Lock()
		err = WriteFrame(c.conn, b)
		c.wmu.Unlock()
	}
	if err != nil {
		c.mu.Lock()
		if _, ok := c.pending[req.ID]; ok {
			delete(c.pending, req.ID)
			c.outstanding--
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		return Response{}, err
	}
	return <-ch, nil
}

// Close tears the connection down; in-flight Dos fail with ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
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
