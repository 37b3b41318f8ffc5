package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
)

// prng is SplitMix64: the benchmark's own generator, so the inputs depend on
// --seed alone and on nothing inside the program under test.
type prng struct{ s uint64 }

func newPRNG(seed uint64, stream string) *prng {
	s := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, c := range []byte(stream) {
		s = (s ^ uint64(c)) * 0x100000001b3
	}
	return &prng{s: s}
}

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// op is one generated block operation.
type op struct {
	addr  uint64
	write bool
}

// opGen draws operations over [base, base+space): uniform addresses, or
// Zipf-ranked when built with zipf > 0, half of them writes.
type opGen struct {
	r     *prng
	base  uint64
	space uint64
	cdf   []float64 // Zipf cumulative weights by rank; nil = uniform
	perm  []uint32  // rank → address offset, so the hot set moves with the seed
}

func newOpGen(seed uint64, stream string, base, space uint64, zipf float64) *opGen {
	g := &opGen{r: newPRNG(seed, stream), base: base, space: space}
	if zipf > 0 {
		g.cdf = make([]float64, space)
		var sum float64
		for i := range g.cdf {
			sum += 1 / math.Pow(float64(i+1), zipf)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
		g.perm = make([]uint32, space)
		for i := range g.perm {
			g.perm[i] = uint32(i)
		}
		pr := newPRNG(seed, stream+"/perm")
		for i := len(g.perm) - 1; i > 0; i-- {
			j := int(pr.next() % uint64(i+1))
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		}
	}
	return g
}

func (g *opGen) next() op {
	var off uint64
	if g.cdf == nil {
		off = g.r.next() % g.space
	} else {
		rank := sort.SearchFloat64s(g.cdf, g.r.float())
		if rank >= len(g.perm) {
			rank = len(g.perm) - 1
		}
		off = uint64(g.perm[rank])
	}
	return op{addr: g.base + off, write: g.r.next()&1 == 0}
}

// poissonDue returns n arrival offsets (seconds from the start) of a Poisson
// process of the given rate.
func poissonDue(seed uint64, stream string, rate float64, n int) []float64 {
	r := newPRNG(seed, stream)
	due := make([]float64, n)
	var t float64
	for i := range due {
		t += -math.Log(1-r.float()) / rate
		due[i] = t
	}
	return due
}

// fillPayload writes the block the oracle expects at (addr, ver): the address,
// the version, then bytes chained from both, so a block served for the wrong
// address, a stale version or with any flipped byte fails the check.
func fillPayload(dst []byte, addr, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:], addr)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	x := addr*0x9e3779b97f4a7c15 ^ ver*0xbf58476d1ce4e5b9
	for i := 16; i+8 <= len(dst); i += 8 {
		x ^= x >> 29
		x *= 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// payloadVersion extracts the version a block claims, or false when the block
// is not a well-formed payload for addr.
func payloadVersion(data []byte, addr uint64, scratch []byte) (uint64, bool) {
	if len(data) != len(scratch) || binary.LittleEndian.Uint64(data) != addr {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(data[8:])
	fillPayload(scratch, addr, ver)
	return ver, bytes.Equal(data, scratch)
}

// oracle is the shadow map for single-caller workloads: the version last
// written to each address, in logical order.
type oracle struct {
	ver     []uint64
	scratch []byte
}

func newOracle(space uint64) *oracle {
	return &oracle{ver: make([]uint64, space), scratch: make([]byte, blockSize)}
}

// write bumps addr's version and fills dst with the payload to store.
func (o *oracle) write(addr uint64, dst []byte) {
	o.ver[addr]++
	fillPayload(dst, addr, o.ver[addr])
}

// check reports whether data is exactly the last payload written to addr.
func (o *oracle) check(addr uint64, data []byte) bool {
	ver, ok := payloadVersion(data, addr, o.scratch)
	return ok && ver == o.ver[addr]
}
