package oram

import (
	"errors"
	"testing"
)

// FuzzStash replays an arbitrary op tape against both the sorted-slice stash
// and a plain map: every Put, Get and Remove must return what the map would
// (overflow on exactly the same Put; replacing an address at capacity never
// fails), Range must visit the map's contents in strictly ascending address
// order, and a vacated slot of the backing array must not keep a payload
// reachable.
func FuzzStash(f *testing.F) {
	f.Add([]byte{0x05, 0x03, 0x01, 0x45, 0x83, 0xc3, 0xc0, 0x03}, uint8(2))
	f.Add([]byte{0x1f, 0x00, 0x00, 0x80, 0x80, 0x40}, uint8(0))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, tape []byte, capacity uint8) {
		s := NewStash(int(capacity%12) + 1)
		model := map[uint64]Block{}
		same := func(a, b Block) bool {
			return a.Addr == b.Addr && a.Leaf == b.Leaf && len(a.Data) == 1 && len(b.Data) == 1 && &a.Data[0] == &b.Data[0]
		}
		for i, op := range tape {
			// Few addresses, so the tape collides, refills and overflows;
			// 0x1f stands for the dummy address Put must refuse.
			addr := uint64(op & 0x1f)
			if addr == 0x1f {
				addr = DummyAddr
			}
			switch op >> 6 {
			case 0, 1: // Put twice as often as the rest
				b := Block{Addr: addr, Leaf: uint64(i), Data: []byte{byte(i)}}
				err := s.Put(b)
				_, present := model[addr]
				switch {
				case addr == DummyAddr:
					if err == nil {
						t.Fatalf("op %d: dummy block accepted", i)
					}
				case !present && len(model) >= s.Capacity():
					if !errors.Is(err, ErrStashOverflow) {
						t.Fatalf("op %d: Put(%d) into a full stash: %v, want overflow", i, addr, err)
					}
				default:
					if err != nil {
						t.Fatalf("op %d: Put(%d) with %d of %d used, present %v: %v", i, addr, len(model), s.Capacity(), present, err)
					}
					model[addr] = b
				}
			case 2:
				got, ok := s.Get(addr)
				want, wok := model[addr]
				if ok != wok || ok && !same(got, want) {
					t.Fatalf("op %d: Get(%d) = (%+v, %v), model (%+v, %v)", i, addr, got, ok, want, wok)
				}
			case 3:
				got, ok := s.Remove(addr)
				want, wok := model[addr]
				if ok != wok || ok && !same(got, want) {
					t.Fatalf("op %d: Remove(%d) = (%+v, %v), model (%+v, %v)", i, addr, got, ok, want, wok)
				}
				delete(model, addr)
			}

			if s.Len() != len(model) {
				t.Fatalf("op %d: Len %d, model %d", i, s.Len(), len(model))
			}
			seen, last := 0, uint64(0)
			s.Range(func(b Block) bool {
				if seen > 0 && b.Addr <= last {
					t.Fatalf("op %d: Range visits %d after %d", i, b.Addr, last)
				}
				if want, ok := model[b.Addr]; !ok || !same(b, want) {
					t.Fatalf("op %d: Range visits %+v, model (%+v, %v)", i, b, want, ok)
				}
				seen, last = seen+1, b.Addr
				return true
			})
			if seen != len(model) {
				t.Fatalf("op %d: Range visited %d blocks, model holds %d", i, seen, len(model))
			}
			for j, b := range s.blocks[len(s.blocks):cap(s.blocks)] {
				if b.Data != nil {
					t.Fatalf("op %d: vacated slot %d of the backing array still holds a payload", i, len(s.blocks)+j)
				}
			}
		}
		stops := 0
		s.Range(func(Block) bool { stops++; return false })
		if want := min(1, len(model)); stops != want {
			t.Fatalf("Range ignored an early stop: %d calls, want %d", stops, want)
		}
	})
}
