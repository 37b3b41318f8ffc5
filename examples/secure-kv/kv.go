package main

import (
	"errors"
	"fmt"
)

// The oblivious map of the package comment. Each slot's block holds one
// record — keyLen(1) | key | valLen(1) | value, zero-padded to the block
// size — and a kvMap is only a slot count and a block size, so any two
// clients that agree on both address the same records.

// blockStore is the block device a kvMap probes. Read of a never-written
// address returns zeros (an unoccupied record).
type blockStore interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
}

// maxProbes bounds every probe chain. A get that walks maxProbes occupied
// slots without a hit reports absence; a put that finds no free or matching
// slot within maxProbes fails with errFull.
const maxProbes = 16

// errFull reports a probe chain with no free slot — the table is locally
// full around that key's hash.
var errFull = errors.New("kv: probe chain full")

// kvMap is a fixed-capacity oblivious string→string map over a blockStore.
type kvMap struct {
	slots     uint64
	blockSize int
}

// newKVMap builds a mapping over slots block addresses of blockSize bytes
// each. blockSize must leave room for the two length prefixes.
func newKVMap(slots uint64, blockSize int) (*kvMap, error) {
	if slots == 0 || blockSize < 4 {
		return nil, fmt.Errorf("kv: %d slots of %d bytes cannot hold records", slots, blockSize)
	}
	return &kvMap{slots: slots, blockSize: blockSize}, nil
}

// probe returns the i-th slot of key's probe chain: FNV-1a (64-bit) of the
// key, plus i, modulo the slot count.
func (m *kvMap) probe(key string, i uint64) uint64 {
	h := uint64(1469598103934665603)
	for j := 0; j < len(key); j++ {
		h ^= uint64(key[j])
		h *= 1099511628211
	}
	return (h + i) % m.slots
}

// encode packs key=val into one record. The record must fit the block and
// each field a one-byte length, and keys must be non-empty (a zero first
// byte marks an unoccupied slot).
func (m *kvMap) encode(key, val string) ([]byte, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("kv: empty key")
	}
	if len(key) > 255 || len(val) > 255 || 2+len(key)+len(val) > m.blockSize {
		return nil, fmt.Errorf("kv: record %q (%d+%d bytes) exceeds block size %d",
			key, len(key), len(val), m.blockSize)
	}
	out := make([]byte, 0, 2+len(key)+len(val))
	out = append(append(out, byte(len(key))), key...)
	return append(append(out, byte(len(val))), val...), nil
}

// decodeRecord unpacks a record. ok is false for unoccupied (zeroed) or
// malformed blocks — it is total and never panics on hostile input.
func decodeRecord(b []byte) (key, val string, ok bool) {
	if len(b) < 2 || b[0] == 0 {
		return "", "", false
	}
	kl := int(b[0])
	if 1+kl+1 > len(b) {
		return "", "", false
	}
	key = string(b[1 : 1+kl])
	vl := int(b[1+kl])
	if 2+kl+vl > len(b) {
		return "", "", false
	}
	return key, string(b[2+kl : 2+kl+vl]), true
}

// get fetches the value for key, probing at most maxProbes slots. An
// unoccupied slot terminates the chain (the key is absent).
func (m *kvMap) get(s blockStore, key string) (string, bool, error) {
	for i := uint64(0); i < maxProbes; i++ {
		cur, err := s.Read(m.probe(key, i))
		if err != nil {
			return "", false, err
		}
		k, v, occupied := decodeRecord(cur)
		if !occupied {
			return "", false, nil
		}
		if k == key {
			return v, true, nil
		}
	}
	return "", false, nil
}

// put stores key=val in the first free or matching slot of the chain.
func (m *kvMap) put(s blockStore, key, val string) error {
	rec, err := m.encode(key, val)
	if err != nil {
		return err
	}
	for i := uint64(0); i < maxProbes; i++ {
		addr := m.probe(key, i)
		cur, err := s.Read(addr)
		if err != nil {
			return err
		}
		k, _, occupied := decodeRecord(cur)
		if !occupied || k == key {
			return s.Write(addr, rec)
		}
	}
	return fmt.Errorf("kv: %w for %q", errFull, key)
}
