package serve

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
)

// wireFrame is the frame WriteFrame writes for payload.
func wireFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return b.Bytes()
}

// checkAppendFrame checks that m's append encoder writes exactly the frame
// WriteFrame writes for payload, after whatever dst already held, and that
// m's typed decoder returns m.
func checkAppendFrame(t testing.TB, m any, payload []byte) {
	t.Helper()
	dst := []byte("held")
	var got []byte
	var err error
	var typed any
	switch v := m.(type) {
	case Request:
		got, err = v.appendFrame(dst)
		typed, _ = boxed(decodeRequest(payload))
	case Response:
		got, err = v.appendFrame(dst)
		typed, _ = boxed(decodeResponse(payload))
	default:
		return
	}
	if err != nil {
		t.Fatalf("appendFrame %T: %v", m, err)
	}
	if want := append([]byte("held"), wireFrame(t, payload)...); !bytes.Equal(got, want) {
		t.Fatalf("appendFrame %T differs from WriteFrame(Encode()):\n got  % x\n want % x", m, got, want)
	}
	if !reflect.DeepEqual(typed, m) {
		t.Fatalf("typed decoder: %#v, want %#v", typed, m)
	}
}

func TestWireRoundtrip(t *testing.T) {
	msgs := []any{
		Hello{Tenant: "acme"},
		Hello{Tenant: ""},
		HelloAck{Credit: 7, BlockSize: 64},
		Request{ID: 42, Write: true, Retry: true, Addr: 1234,
			DeadlineMS: 250, Data: []byte("payload")},
		Request{ID: 1, Addr: 9},
		Request{ID: 1<<64 - 1, Write: true, Addr: 1<<64 - 1, DeadlineMS: 1<<32 - 1,
			Data: bytes.Repeat([]byte{0xa5}, MaxFrame-24)},
		Response{ID: 42, Status: StatusShed, Credit: 3},
		Response{ID: 7, Status: StatusOK, Credit: 16, Data: []byte("block")},
		Response{ID: 1<<64 - 1, Status: StatusError, Credit: 1<<16 - 1,
			Data: bytes.Repeat([]byte{0x5a}, MaxFrame-16)},
	}
	for _, m := range msgs {
		var b []byte
		var err error
		switch v := m.(type) {
		case Hello:
			b, err = v.Encode()
		case HelloAck:
			b = v.Encode()
		case Request:
			b, err = v.Encode()
		case Response:
			b, err = v.Encode()
		}
		if err != nil {
			t.Fatalf("encode %#v: %v", m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %#v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("roundtrip %#v -> %#v", m, got)
		}
		checkAppendFrame(t, m, b)
	}

	// One byte over the size limit is refused by both encoders, and the
	// append form leaves dst as it was.
	for _, enc := range []struct {
		name   string
		encode func() ([]byte, error)
		append func([]byte) ([]byte, error)
	}{
		{"Request", Request{Data: make([]byte, MaxFrame-23)}.Encode, Request{Data: make([]byte, MaxFrame-23)}.appendFrame},
		{"Response", Response{Data: make([]byte, MaxFrame-15)}.Encode, Response{Data: make([]byte, MaxFrame-15)}.appendFrame},
	} {
		if _, err := enc.encode(); err == nil {
			t.Errorf("%s.Encode accepted an over-size payload", enc.name)
		}
		if got, err := enc.append([]byte("held")); err == nil || string(got) != "held" {
			t.Errorf("%s.appendFrame over size: %q, %v", enc.name, got, err)
		}
	}
}

// countingWriter counts Write calls: on a TCP_NODELAY connection each one
// is a syscall and a packet.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWireFraming(t *testing.T) {
	var buf countingWriter
	for i, p := range [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{9}, 500)} {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
		if buf.writes != i+1 {
			t.Fatalf("%d Write calls for %d frames, want one a frame", buf.writes, i+1)
		}
	}
	for _, want := range [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{9}, 500)} {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v want %v", got, want)
		}
	}
	// Hostile length prefix.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame err = %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 1, 0, 1}), make([]byte, 2*MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame into a larger buffer: err = %v", err)
	}

	// readFrame reads into the buffer it is given while the payload fits.
	into := make([]byte, 8)
	got, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3}), into)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) || &got[0] != &into[0] {
		t.Fatalf("readFrame into a buffer that fits: %v, %v", got, err)
	}
}

// TestReadFrameErrorsAnyReader pins that a bufio.Reader, whose length
// ReadFrame peeks, and a plain reader end a stream with the same errors.
func TestReadFrameErrorsAnyReader(t *testing.T) {
	frame := []byte{0, 0, 0, 2, 7, 8}
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{nil, io.EOF},
		{frame[:3], io.ErrUnexpectedEOF},
		{frame[:5], io.ErrUnexpectedEOF},
		{[]byte{0xff, 0xff, 0xff, 0xff}, ErrFrameTooLarge},
	} {
		for _, r := range []io.Reader{bytes.NewReader(tc.in), bufio.NewReader(bytes.NewReader(tc.in))} {
			if _, err := ReadFrame(r); err != tc.want {
				t.Errorf("%T over % x: err = %v, want %v", r, tc.in, err, tc.want)
			}
		}
	}
	br := bufio.NewReader(bytes.NewReader(append(frame, frame...)))
	for i := 0; i < 2; i++ {
		if got, err := ReadFrame(br); err != nil || !bytes.Equal(got, frame[4:]) {
			t.Fatalf("frame %d = %v, %v", i, got, err)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after the last frame err = %v, want io.EOF", err)
	}
}

func TestDecodeHostile(t *testing.T) {
	cases := [][]byte{
		nil, {}, {0x99}, {MsgHello}, {MsgHello, 5, 'a'},
		{MsgHelloAck, 1}, {MsgRequest, 0, 0}, {MsgResponse},
		append([]byte{MsgRequest}, make([]byte, 22)...), // one short of header
	}
	for _, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Fatalf("Decode(%v) accepted hostile input", b)
		}
	}
}

// FuzzWireDecode pins Decode's totality: any byte string either decodes
// into a message that re-encodes to the identical bytes, or errors — never
// a panic, never a lossy accept. The typed decoders accept exactly the
// Requests and Responses Decode accepts and return the same message, and
// the append encoders write the frame WriteFrame writes.
func FuzzWireDecode(f *testing.F) {
	seedHello, _ := Hello{Tenant: "t"}.Encode()
	seedReq, _ := Request{ID: 3, Write: true, Addr: 7, Data: []byte("x")}.Encode()
	seedResp, _ := Response{ID: 3, Status: StatusOK, Data: []byte("y")}.Encode()
	f.Add(seedHello)
	f.Add(HelloAck{Credit: 1, BlockSize: 64}.Encode())
	f.Add(seedReq)
	f.Add(seedResp)
	f.Add([]byte{})
	f.Add(append([]byte{MsgResponse}, seedReq[1:]...)) // a Request's body under a Response's tag
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		req, reqErr := decodeRequest(b)
		resp, respErr := decodeResponse(b)
		if _, ok := m.(Request); ok != (reqErr == nil) || ok && !reflect.DeepEqual(m, req) {
			t.Fatalf("decodeRequest = %#v, %v; Decode = %#v, %v", req, reqErr, m, err)
		}
		if _, ok := m.(Response); ok != (respErr == nil) || ok && !reflect.DeepEqual(m, resp) {
			t.Fatalf("decodeResponse = %#v, %v; Decode = %#v, %v", resp, respErr, m, err)
		}
		if err != nil {
			return
		}
		var re []byte
		switch v := m.(type) {
		case Hello:
			re, err = v.Encode()
		case HelloAck:
			re = v.Encode()
		case Request:
			re, err = v.Encode()
		case Response:
			re, err = v.Encode()
		default:
			t.Fatalf("Decode returned unknown type %T", m)
		}
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  %v\n out %v", b, re)
		}
		checkAppendFrame(t, m, b)
	})
}
