package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// draw makes one draw of kind op%4 from both generators and reports
// whether they agree.
func draw(op byte, got *Source, want *rand.Rand) bool {
	switch op % 4 {
	case 0:
		return got.Float64() == want.Float64()
	case 1:
		return got.Uint32() == want.Uint32()
	case 2:
		return got.Uint64() == want.Uint64()
	default:
		return got.Int63() == want.Int63()
	}
}

// edgeSeeds are the seeds around Seed's normalization: zero and its
// replacement constant, ±1, the LCG modulus and its multiples (all ≡ 0),
// and the int64 extremes.
func edgeSeeds() []int64 {
	const m = 1<<31 - 1
	return []int64{
		0, 1, -1, 89482311, -89482311,
		m, -m, m - 1, m + 1, -m - 1, 2 * m, -2 * m, 3*m + 5, m * m, -m * m,
		1 << 31, 1 << 32, -(1 << 32),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
}

// TestMatchesMathRand pins the whole contract: for every seed, a mixed
// sequence of 700 draws — across the 273-draw lazy range, the spill and
// the replayed tail — equals math/rand's, draw for draw; and a reseeded
// Source equals a fresh one.
func TestMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	pick := rand.New(rand.NewSource(0x1a2))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var reused Source
	for _, seed := range seeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for k := 0; k < 700; k++ {
			if op := byte(ops.Intn(4)); !draw(op, &got, want) {
				t.Fatalf("seed %d: draw %d (op %d) differs from math/rand", seed, k, op)
			}
		}
		reused.Seed(seed)
		fresh := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 40; k++ {
			if g, w := reused.Uint64(), fresh.Uint64(); g != w {
				t.Fatalf("seed %d: reseeded draw %d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// TestThroughRand drives a Source through *rand.Rand's derived methods
// (Intn's rejection loop, Perm, NormFloat64's ziggurat), the way the
// world planner consumes it.
func TestThroughRand(t *testing.T) {
	for _, seed := range append(edgeSeeds(), 7, 93208, 0x16C18) {
		src := New(seed)
		got, want := rand.New(&src), rand.New(rand.NewSource(seed))
		for k := 0; k < 120; k++ {
			if g, w := got.Intn(1000003), want.Intn(1000003); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, math/rand %d", seed, k, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, k, g, w)
			}
		}
		gp, wp := got.Perm(300), want.Perm(300)
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm[%d] = %d, math/rand %d", seed, i, gp[i], wp[i])
			}
		}
	}
}

// TestMulmod checks the Mersenne fold against the plain remainder at the
// operand extremes and over random pairs.
func TestMulmod(t *testing.T) {
	check := func(a, b uint64) {
		if got, want := mulmod(a, b), a*b%lcgMod; got != want {
			t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	edges := []uint64{0, 1, 2, lcgMul, lcgMod - 1, lcgMod, 1<<31 - 2, 1 << 30}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64()>>33, rng.Uint64()>>33)
	}
}

// FuzzMatchesMathRand lets the fuzzer choose the seed, the draw count and
// the draw kinds.
func FuzzMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(8), []byte{0, 1, 2, 3})
	f.Add(int64(89482311), uint16(273), []byte{2})
	f.Add(int64(-1), uint16(274), []byte{0})
	f.Add(int64(math.MinInt64), uint16(700), []byte{3, 1})
	f.Fuzz(func(t *testing.T, seed int64, nDraws uint16, opBytes []byte) {
		if len(opBytes) == 0 {
			opBytes = []byte{2}
		}
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < int(nDraws%2048); k++ {
			if op := opBytes[k%len(opBytes)]; !draw(op, &got, want) {
				t.Fatalf("seed %d: draw %d (op %d) differs from math/rand", seed, k, op%4)
			}
		}
	})
}

var sink uint64

func BenchmarkSeedDraw8(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(int64(i))
			for k := 0; k < 8; k++ {
				sink += s.Uint64()
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := rand.NewSource(int64(i)).(rand.Source64)
			for k := 0; k < 8; k++ {
				sink += s.Uint64()
			}
		}
	})
}
