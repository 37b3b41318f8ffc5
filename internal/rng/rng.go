// Package rng provides the deterministic pseudo-random number generators
// used throughout the simulator. Every source of randomness (leaf
// remapping, trace generation, scheduling tie-breaks) is seeded explicitly
// so that simulation runs are exactly reproducible.
//
// The generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend. It is not cryptographically secure; cryptographic randomness
// (session keys, nonces) lives in package seccomm.
package rng

import "math/bits"

// SplitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single 64-bit seed into generator state.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	st := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&st)
	}
	// All-zero state is the one invalid state for xoshiro; the SplitMix
	// expansion cannot produce it, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift method with rejection to avoid modulo bias.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n) as an int. It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p (support {1, 2, ...}: the number of trials up to and
// including the first success). p must be in (0, 1].
func (r *Source) Geometric(p float64) uint64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 1
	}
	n := uint64(1)
	for !r.Bool(p) {
		n++
		// Cap pathological streaks so a bad p cannot hang a simulation.
		if n == 1<<32 {
			break
		}
	}
	return n
}

// State snapshots the generator's internal state. Together with Restore it
// lets a checkpoint capture every randomness stream in the system, so a
// recovered run replays exactly the draws the crashed run would have made.
func (r *Source) State() [4]uint64 { return r.s }

// Restore overwrites the generator's internal state with a snapshot taken
// by State. The all-zero state is invalid for xoshiro and is coerced to a
// minimal non-zero state rather than wedging the generator.
func (r *Source) Restore(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	r.s = s
}

// Stream derives an independent generator from (seed, domain, index) — the
// seed-derivation scheme of the parallel engines. The domain string keeps
// unrelated subsystems (worker RNGs, benchmark workloads, shard schedules)
// off each other's streams even at equal indices, and the whole derivation
// is a pure function of its arguments, so a Parallelism: 1 run and a
// Parallelism: N run hand every worker exactly the same stream.
func Stream(seed uint64, domain string, index int) *Source {
	st := seed
	for _, b := range []byte(domain) {
		st ^= uint64(b)
		SplitMix64(&st)
	}
	st ^= uint64(index)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return New(SplitMix64(&st))
}
