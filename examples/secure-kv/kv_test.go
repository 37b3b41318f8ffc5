package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// errAborted stands for a store error a caller classifies (a deadline, a
// shutdown): the map must hand it back unwrapped.
var errAborted = errors.New("kv test: access aborted")

// memStore is a plain in-memory blockStore with the ORAM contract: reads of
// never-written addresses return zeros.
type memStore struct {
	blockSize int
	m         map[uint64][]byte
	reads     int
	failAfter int // when > 0, reads past this count return errAborted
}

func newMemStore(blockSize int) *memStore {
	return &memStore{blockSize: blockSize, m: make(map[uint64][]byte)}
}

func (s *memStore) Read(addr uint64) ([]byte, error) {
	s.reads++
	if s.failAfter > 0 && s.reads > s.failAfter {
		return nil, errAborted
	}
	if b, ok := s.m[addr]; ok {
		return b, nil
	}
	return make([]byte, s.blockSize), nil
}

func (s *memStore) Write(addr uint64, data []byte) error {
	b := make([]byte, s.blockSize)
	copy(b, data)
	s.m[addr] = b
	return nil
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m, err := newKVMap(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.encode("alice", "credit:9912")
	if err != nil {
		t.Fatal(err)
	}
	k, v, ok := decodeRecord(rec)
	if !ok || k != "alice" || v != "credit:9912" {
		t.Fatalf("decodeRecord = %q %q %v", k, v, ok)
	}
	// Padding to the block size must not change the decoding.
	padded := make([]byte, 128)
	copy(padded, rec)
	if k, v, ok = decodeRecord(padded); !ok || k != "alice" || v != "credit:9912" {
		t.Fatalf("padded decodeRecord = %q %q %v", k, v, ok)
	}
	if _, err := m.encode("", "x"); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := m.encode(strings.Repeat("k", 127), strings.Repeat("v", 127)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// decodeRecord must be total on hostile input.
func TestDecodeHostile(t *testing.T) {
	cases := [][]byte{
		nil, {}, {0}, {5}, {200, 'a'}, {1, 'a', 250}, {2, 'a'},
	}
	for _, b := range cases {
		if _, _, ok := decodeRecord(b); ok {
			t.Fatalf("decodeRecord(%v) claimed a valid record", b)
		}
	}
}

func TestPutGetOverwriteAbsent(t *testing.T) {
	m, err := newKVMap(256, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := newMemStore(128)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("user-%d", i), fmt.Sprintf("val-%d", i)
		if err := m.put(s, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Overwrite in place.
	if err := m.put(s, "user-7", "rewritten"); err != nil {
		t.Fatal(err)
	}
	want["user-7"] = "rewritten"
	for k, v := range want {
		got, ok, err := m.get(s, k)
		if err != nil || !ok || got != v {
			t.Fatalf("Get(%q) = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	if _, ok, err := m.get(s, "mallory"); err != nil || ok {
		t.Fatalf("absent key reported present (err %v)", err)
	}
}

// Forcing every key into one chain must keep probing past collisions and
// fail with errFull once the chain saturates.
func TestProbeChainSaturation(t *testing.T) {
	m, err := newKVMap(maxProbes, 64) // tiny table: all chains overlap heavily
	if err != nil {
		t.Fatal(err)
	}
	s := newMemStore(64)
	stored := 0
	for i := 0; i < 2*maxProbes; i++ {
		err := m.put(s, fmt.Sprintf("k%02d", i), "v")
		if err == nil {
			stored++
			continue
		}
		if !errors.Is(err, errFull) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if stored != maxProbes {
		t.Fatalf("stored %d records in a %d-slot table", stored, maxProbes)
	}
	// Everything that was acknowledged must still be readable.
	found := 0
	for i := 0; i < 2*maxProbes; i++ {
		if _, ok, err := m.get(s, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		} else if ok {
			found++
		}
	}
	if found != stored {
		t.Fatalf("found %d of %d stored records", found, stored)
	}
}

// A store abort (deadline, shutdown) must surface unwrapped so callers can
// classify it.
func TestStoreAbortPassthrough(t *testing.T) {
	m, err := newKVMap(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := newMemStore(64)
	s.failAfter = 0
	if err := m.put(s, "a", "1"); err != nil {
		t.Fatal(err)
	}
	s.failAfter = s.reads // next read aborts
	if _, _, err := m.get(s, "a"); !errors.Is(err, errAborted) {
		t.Fatalf("get abort = %v, want errAborted", err)
	}
	if err := m.put(s, "b", "2"); !errors.Is(err, errAborted) {
		t.Fatalf("put abort = %v, want errAborted", err)
	}
}
