package serve

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
)

func TestWireRoundtrip(t *testing.T) {
	msgs := []any{
		Hello{Tenant: "acme"},
		Hello{Tenant: ""},
		HelloAck{Credit: 7, BlockSize: 64},
		Request{ID: 42, Write: true, Retry: true, Addr: 1234,
			DeadlineMS: 250, Data: []byte("payload")},
		Request{ID: 1, Addr: 9},
		Response{ID: 42, Status: StatusShed, Credit: 3},
		Response{ID: 7, Status: StatusOK, Credit: 16, Data: []byte("block")},
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
// a panic, never a lossy accept.
func FuzzWireDecode(f *testing.F) {
	seedHello, _ := Hello{Tenant: "t"}.Encode()
	seedReq, _ := Request{ID: 3, Write: true, Addr: 7, Data: []byte("x")}.Encode()
	seedResp, _ := Response{ID: 3, Status: StatusOK, Data: []byte("y")}.Encode()
	f.Add(seedHello)
	f.Add(HelloAck{Credit: 1, BlockSize: 64}.Encode())
	f.Add(seedReq)
	f.Add(seedResp)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
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
	})
}
