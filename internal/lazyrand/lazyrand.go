// Package lazyrand is math/rand's seeded generator for callers that seed
// per item and draw a handful of values: a value-type Source yielding the
// identical stream to rand.NewSource(seed) without filling the 607-word
// state array a Seed call pays for.
//
// math/rand seeds its additive lagged-Fibonacci register from a
// multiplicative LCG, x[n] = 48271ⁿ·x[0] mod (2³¹−1): word i is built from
// steps 21+3i, 22+3i and 23+3i and XORed with a fixed table. Draw k
// (1-based) of a fresh register returns vec[334−k] + vec[607−k] and writes
// the sum to vec[334−k], so the first 273 draws read only words no earlier
// draw has written — and each such word is three modular multiplications
// away from the seed. Source computes exactly those words on demand. From
// draw 274 on the taps reach rewritten words; Source then seeds a real
// rand.NewSource, replays the draws made so far and delegates, so the
// stream is exact at any length and a many-draw caller pays math/rand's
// own cost plus one replay.
package lazyrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lcgMod = 1<<31 - 1 // the seeding LCG's Mersenne modulus
	lcgMul = 48271
)

// lcgPow[i] is 48271^(21+3i) mod lcgMod: the LCG's distance from the seed
// to the first of the three steps that build register word i.
var lcgPow = func() (t [rngLen]uint32) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = mulmod(x, lcgMul)
	}
	for i := range t {
		t[i] = uint32(x)
		x = mulmod(mulmod(mulmod(x, lcgMul), lcgMul), lcgMul)
	}
	return t
}()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31 // 2³¹ ≡ 1: fold the high half in; < 2³²
	p = p&lcgMod + p>>31 // ≤ lcgMod+1
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// Source is a math/rand-compatible generator: after Seed(s) (or New(s)) it
// yields the stream of rand.NewSource(s), draw for draw. It implements
// rand.Source64, so rand.New(&src) gives the full *rand.Rand API over it;
// the methods below mirror *rand.Rand's for allocation-free direct use.
// The zero value is unseeded and must not be drawn from. A Source is not
// safe for concurrent use, and must not be copied once drawn from (copies
// made after the fallback would share its state).
type Source struct {
	// x holds the normalized seed and its next two LCG steps, so a
	// register word is three independent multiplications.
	x [3]uint64
	// n counts draws served lazily; it stops at rngTap.
	n int
	// full is the materialized math/rand source, nil until draw rngTap+1.
	full rand.Source64
}

// New returns a Source seeded with seed.
func New(seed int64) Source {
	var s Source
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state of rand.NewSource(seed).
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	x1 := mulmod(x0, lcgMul)
	*s = Source{x: [3]uint64{x0, x1, mulmod(x1, lcgMul)}}
}

// word returns register word i as Seed would have filled it.
func (s *Source) word(i int) int64 {
	p := uint64(lcgPow[i])
	return int64(mulmod(p, s.x[0])<<40^mulmod(p, s.x[1])<<20^mulmod(p, s.x[2])) ^ rngCooked[i]
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.n == rngTap {
		return s.spill()
	}
	s.n++
	return uint64(s.word(rngLen-rngTap-s.n) + s.word(rngLen-s.n))
}

// spill serves draws past the lazy range from a real math/rand source,
// seeded and fast-forwarded on first use.
func (s *Source) spill() uint64 {
	if s.full == nil {
		// The normalized seed is its own residue, so it reseeds identically.
		full := rand.NewSource(int64(s.x[0])).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			full.Uint64()
		}
		s.full = full
	}
	return s.full.Uint64()
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint32 returns a pseudo-random 32-bit value, as (*rand.Rand).Uint32.
func (s *Source) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Float64 returns a pseudo-random number in [0.0,1.0), as
// (*rand.Rand).Float64 — including its resample when the division rounds
// up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

var _ rand.Source64 = (*Source)(nil)
