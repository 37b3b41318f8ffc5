// Package serve is the overload-robust multi-tenant front end over a
// Cluster's streaming pipeline: a length-prefixed TCP wire protocol, a
// tenant-oblivious admission layer with queue-depth watermarks and a retry
// token bucket, per-connection slow-start credits for backpressure, and a
// graceful shutdown path that drains in-flight waves through the durable
// journal commit point.
//
// The server is deliberately a *block* server: requests address ORAM blocks,
// and richer data models (the secure-kv example's hash table) layer on the
// client side. That keeps every request the same shape on the wire and the
// same cost in the pipeline — one accessORAM — which is what makes
// tenant-oblivious admission meaningful.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame layer: every message crosses the wire as a 4-byte big-endian length
// followed by that many payload bytes. MaxFrame bounds hostile lengths.
const MaxFrame = 1 << 16

// Message type tags (payload byte 0).
const (
	MsgHello    = 0x01 // client → server, once per connection
	MsgHelloAck = 0x02 // server → client
	MsgRequest  = 0x03 // client → server
	MsgResponse = 0x04 // server → client
)

// Response status codes.
const (
	StatusOK       = 0x00 // request executed
	StatusShed     = 0x01 // admission refused: over capacity; retry with backoff
	StatusDeadline = 0x02 // refused or aborted: deadline cannot be met
	StatusError    = 0x03 // executed and failed (Data carries the error text)
	StatusClosing  = 0x04 // server draining: reconnect elsewhere
)

// StatusString names a status code for logs and counters.
func StatusString(s byte) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusShed:
		return "shed"
	case StatusDeadline:
		return "deadline"
	case StatusError:
		return "error"
	case StatusClosing:
		return "closing"
	}
	return fmt.Sprintf("status-%d", s)
}

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("serve: frame exceeds MaxFrame")

// ErrMalformed reports a payload that does not decode as any message.
var ErrMalformed = errors.New("serve: malformed message")

// Hello opens a connection. Tenant is an accounting label only: it feeds
// per-tenant telemetry and nothing else — the admission layer never sees it
// (see Admission.Admit).
type Hello struct {
	Tenant string
}

// HelloAck acknowledges a Hello and grants the connection's initial request
// credit. BlockSize tells the client how large payloads must be.
type HelloAck struct {
	Credit    uint16
	BlockSize uint32
}

// Request is one block operation. DeadlineMS is the client's per-request
// budget in milliseconds from server receipt; zero selects the server
// default. Retry marks a client-side retry of a previously shed request —
// retries draw from the server's retry token budget so a shed storm cannot
// amplify itself.
type Request struct {
	ID         uint64
	Write      bool
	Retry      bool
	Addr       uint64
	DeadlineMS uint32
	Data       []byte
}

// Response answers one Request. Credit is the connection's updated request
// window (slow-start backpressure: it grows on success and shrinks when the
// server is under pressure). Data is the block payload for successful reads
// and the error text for StatusError.
type Response struct {
	ID     uint64
	Status byte
	Credit uint16
	Data   []byte
}

// WriteFrame writes one length-prefixed payload in a single Write: on an
// unbuffered TCP_NODELAY connection every Write is a syscall and a packet.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed payload. Hand it a bufio.Reader over a
// connection, not the connection, or each frame costs two reads.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

const (
	flagWrite = 1 << 0
	flagRetry = 1 << 1
)

// Encode serializes h.
func (h Hello) Encode() ([]byte, error) {
	if len(h.Tenant) > 255 {
		return nil, fmt.Errorf("serve: tenant name %d bytes long", len(h.Tenant))
	}
	out := make([]byte, 0, 2+len(h.Tenant))
	out = append(out, MsgHello, byte(len(h.Tenant)))
	return append(out, h.Tenant...), nil
}

// Encode serializes a.
func (a HelloAck) Encode() []byte {
	out := make([]byte, 7)
	out[0] = MsgHelloAck
	binary.BigEndian.PutUint16(out[1:3], a.Credit)
	binary.BigEndian.PutUint32(out[3:7], a.BlockSize)
	return out
}

// Encode serializes r.
func (r Request) Encode() ([]byte, error) {
	if len(r.Data) > MaxFrame-24 {
		return nil, fmt.Errorf("serve: request payload %d bytes", len(r.Data))
	}
	out := make([]byte, 0, 24+len(r.Data))
	out = append(out, MsgRequest)
	var flags byte
	if r.Write {
		flags |= flagWrite
	}
	if r.Retry {
		flags |= flagRetry
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint64(out, r.ID)
	out = binary.BigEndian.AppendUint64(out, r.Addr)
	out = binary.BigEndian.AppendUint32(out, r.DeadlineMS)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Data)))
	return append(out, r.Data...), nil
}

// Encode serializes r.
func (r Response) Encode() ([]byte, error) {
	if len(r.Data) > MaxFrame-16 {
		return nil, fmt.Errorf("serve: response payload %d bytes", len(r.Data))
	}
	out := make([]byte, 0, 16+len(r.Data))
	out = append(out, MsgResponse, r.Status)
	out = binary.BigEndian.AppendUint64(out, r.ID)
	out = binary.BigEndian.AppendUint16(out, r.Credit)
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Data)))
	return append(out, r.Data...), nil
}

// Decode parses one message payload. It is total: any input either decodes
// into one of the four message structs or returns ErrMalformed — never a
// panic (FuzzWireDecode pins this). A Request's or Response's Data is a view
// into b, not a copy: ReadFrame returns a fresh payload for every frame.
func Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, ErrMalformed
	}
	switch b[0] {
	case MsgHello:
		if len(b) < 2 {
			return nil, ErrMalformed
		}
		n := int(b[1])
		if len(b) != 2+n {
			return nil, ErrMalformed
		}
		return Hello{Tenant: string(b[2:])}, nil
	case MsgHelloAck:
		if len(b) != 7 {
			return nil, ErrMalformed
		}
		return HelloAck{
			Credit:    binary.BigEndian.Uint16(b[1:3]),
			BlockSize: binary.BigEndian.Uint32(b[3:7]),
		}, nil
	case MsgRequest:
		if len(b) < 24 || b[1]&^(flagWrite|flagRetry) != 0 {
			return nil, ErrMalformed
		}
		n := int(binary.BigEndian.Uint16(b[22:24]))
		if len(b) != 24+n {
			return nil, ErrMalformed
		}
		r := Request{
			Write:      b[1]&flagWrite != 0,
			Retry:      b[1]&flagRetry != 0,
			ID:         binary.BigEndian.Uint64(b[2:10]),
			Addr:       binary.BigEndian.Uint64(b[10:18]),
			DeadlineMS: binary.BigEndian.Uint32(b[18:22]),
		}
		if n > 0 {
			r.Data = b[24:]
		}
		return r, nil
	case MsgResponse:
		if len(b) < 14 {
			return nil, ErrMalformed
		}
		n := int(binary.BigEndian.Uint16(b[12:14]))
		if len(b) != 14+n {
			return nil, ErrMalformed
		}
		r := Response{
			Status: b[1],
			ID:     binary.BigEndian.Uint64(b[2:10]),
			Credit: binary.BigEndian.Uint16(b[10:12]),
		}
		if n > 0 {
			r.Data = b[14:]
		}
		return r, nil
	}
	return nil, ErrMalformed
}
