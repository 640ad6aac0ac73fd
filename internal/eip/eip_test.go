package eip

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expanse/internal/ip6"
)

// counterSeeds builds a classic low-nybble-counter scheme: hosts ::1..::N
// in a couple of /64s.
func counterSeeds(n int) []ip6.Addr {
	var out []ip6.Addr
	nets := []ip6.Addr{
		ip6.MustParseAddr("2001:db8:100:1::"),
		ip6.MustParseAddr("2001:db8:100:2::"),
	}
	for i := 0; i < n; i++ {
		out = append(out, ip6.AddrFromUint64(nets[i%2].Hi(), uint64(i/2)+1))
	}
	return out
}

func TestBuildSegments(t *testing.T) {
	m := Build(counterSeeds(200))
	if len(m.Segments) == 0 {
		t.Fatal("no segments")
	}
	// Segments must tile nybbles 0..31 without gaps.
	pos := 0
	for _, s := range m.Segments {
		if s.Start != pos || s.End < s.Start {
			t.Fatalf("segment tiling broken: %+v at pos %d", s, pos)
		}
		if s.End-s.Start+1 > maxSegmentLen {
			t.Fatalf("segment too wide: %+v", s)
		}
		pos = s.End + 1
	}
	if pos != 32 {
		t.Fatalf("segments end at %d", pos)
	}
	// Values exist for every segment and probabilities sum to ~1.
	for si, vals := range m.Values {
		if len(vals) == 0 {
			t.Fatalf("segment %d has no values", si)
		}
		sum := 0.0
		for i, v := range vals {
			sum += v.P
			if i > 0 && vals[i-1].P < v.P {
				t.Fatalf("segment %d values not sorted by P", si)
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("segment %d P sum = %v", si, sum)
		}
	}
}

func TestGenerateLearnsCounterScheme(t *testing.T) {
	// Train on hosts 1..100 per subnet; generation should propose other
	// low IIDs in the SAME subnets (the neighboring unseen addresses).
	seeds := counterSeeds(200)
	m := Build(seeds)
	gen := m.Generate(500)
	if len(gen) == 0 {
		t.Fatal("nothing generated")
	}
	seedSet := map[ip6.Addr]bool{}
	for _, s := range seeds {
		seedSet[s] = true
	}
	inNets := 0
	for _, a := range gen {
		if seedSet[a] {
			t.Fatalf("generated a seed address: %v", a)
		}
		hi := a.Hi()
		if hi == ip6.MustParseAddr("2001:db8:100:1::").Hi() || hi == ip6.MustParseAddr("2001:db8:100:2::").Hi() {
			inNets++
		}
	}
	if float64(inNets)/float64(len(gen)) < 0.9 {
		t.Errorf("only %d/%d generated addresses in the seed networks", inNets, len(gen))
	}
}

func TestGenerateUniqueAndBudget(t *testing.T) {
	m := Build(counterSeeds(150))
	gen := m.Generate(100)
	if len(gen) > 100 {
		t.Fatalf("budget exceeded: %d", len(gen))
	}
	seen := map[ip6.Addr]bool{}
	for _, a := range gen {
		if seen[a] {
			t.Fatalf("duplicate generated: %v", a)
		}
		seen[a] = true
	}
}

func TestGenerateCrossProduct(t *testing.T) {
	// The model generalizes by recombining segment values: a subnet that
	// only used IIDs 1..15 should get proposed the IIDs its sibling
	// subnet demonstrated (16..150) — that is how Entropy/IP finds new
	// addresses at all.
	var seeds []ip6.Addr
	popular := ip6.MustParseAddr("2001:db8:a::")
	rare := ip6.MustParseAddr("2001:db8:b::")
	for i := uint64(1); i <= 150; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(popular.Hi(), i))
	}
	for i := uint64(1); i <= 15; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(rare.Hi(), i))
	}
	m := Build(seeds)
	gen := m.Generate(60)
	if len(gen) == 0 {
		t.Fatal("nothing generated")
	}
	rareNew := 0
	for _, a := range gen {
		if a.Hi() == rare.Hi() && a.Lo() > 15 {
			rareNew++
		}
	}
	if rareNew < len(gen)/2 {
		t.Errorf("only %d/%d candidates recombine rare subnet with popular IIDs", rareNew, len(gen))
	}
}

func TestRandomGenerateBaseline(t *testing.T) {
	m := Build(counterSeeds(200))
	gen := m.RandomGenerate(100, 7)
	if len(gen) == 0 {
		t.Fatal("random generator produced nothing")
	}
	seen := map[ip6.Addr]bool{}
	for _, a := range gen {
		if seen[a] {
			t.Fatal("duplicate from random generator")
		}
		seen[a] = true
	}
	// Determinism.
	gen2 := m.RandomGenerate(100, 7)
	if len(gen) != len(gen2) {
		t.Fatal("random generation not deterministic")
	}
	for i := range gen {
		if gen[i] != gen2[i] {
			t.Fatal("random generation not deterministic")
		}
	}
}

func TestBuildDegenerate(t *testing.T) {
	if m := Build(nil); len(m.Segments) != 0 || m.Generate(10) != nil {
		t.Error("empty build should not generate")
	}
	// Single seed: model exists; generation may be empty (everything is
	// a seed) but must not panic.
	m := Build([]ip6.Addr{ip6.MustParseAddr("2001:db8::1")})
	if g := m.Generate(10); len(g) > 10 {
		t.Error("budget exceeded")
	}
}

func TestSLAACSeedsKeepFFFE(t *testing.T) {
	// Training on SLAAC addresses must generate addresses with ff:fe.
	m := Build(slaacSeeds(200))
	gen := m.Generate(50)
	if len(gen) == 0 {
		t.Skip("model memorized all combinations")
	}
	for _, a := range gen {
		if !a.IsSLAAC() {
			t.Fatalf("generated non-SLAAC address %v from SLAAC seeds", a)
		}
	}
}

// slaacSeeds is one /64 of EUI-64 addresses under a single OUI.
func slaacSeeds(n int) []ip6.Addr {
	var seeds []ip6.Addr
	rng := rand.New(rand.NewSource(5))
	net := ip6.MustParseAddr("2001:db8:5::")
	for i := 0; i < n; i++ {
		mac := [6]byte{0x28, 0xfd, 0x80, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		seeds = append(seeds, ip6.FromMAC(net, mac))
	}
	return seeds
}

// randomSeeds draws n addresses whose top 16 bits vary over topBits bits
// and whose low loBits bits are random: almost every mined value is seen
// once or twice, so the Laplace-smoothed rows — and with them the
// frontier — are dominated by equal probabilities.
func randomSeeds(n int, topBits, loBits uint, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	var seeds []ip6.Addr
	for i := 0; i < n; i++ {
		hi := uint64(0x2001)<<48 ^ (rng.Uint64()&(1<<topBits-1))<<48 | 0x0db8<<32
		seeds = append(seeds, ip6.AddrFromUint64(hi, rng.Uint64()&(1<<loBits-1)))
	}
	return seeds
}

// TestGenerateMatchesRef pins the walk against the container/heap oracle
// as a sequence: same addresses, same order, ties included.
func TestGenerateMatchesRef(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seeds  []ip6.Addr
		budget int
		check  func(t *testing.T, m *Model, trims int)
	}{
		{name: "counter", seeds: counterSeeds(200), budget: 500},
		{name: "slaac", seeds: slaacSeeds(200), budget: 300},
		{name: "tie-heavy", seeds: randomSeeds(120, 0, 32, 1), budget: 400},
		{name: "two-trims", seeds: randomSeeds(400, 0, 48, 2), budget: 40,
			check: func(t *testing.T, _ *Model, trims int) {
				if trims < 2 {
					t.Errorf("frontier trimmed %d times, fixture must force at least 2", trims)
				}
			}},
		{name: "budget-1", seeds: counterSeeds(200), budget: 1},
		{name: "segment0-64-values", seeds: randomSeeds(300, 16, 8, 3), budget: 200,
			check: func(t *testing.T, m *Model, _ int) {
				if len(m.Values[0]) != maxValuesPerSegment {
					t.Errorf("segment 0 has %d values, fixture must fill all %d", len(m.Values[0]), maxValuesPerSegment)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := Build(tc.seeds)
			want, trims := m.generateRef(tc.budget)
			if len(want) == 0 {
				t.Fatal("oracle generated nothing: fixture is vacuous")
			}
			if tc.check != nil {
				tc.check(t, m, trims)
			}
			// Twice: the second walk runs on pooled, dirty scratch.
			for run := 0; run < 2; run++ {
				assertSameSequence(t, m.Generate(tc.budget), want)
			}
		})
	}
}

func assertSameSequence(t *testing.T, got, want []ip6.Addr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("generated %d addresses, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("address %d: got %v, oracle %v", i, got[i], want[i])
		}
	}
}

// TestGenerateConcurrent walks two models from eight goroutines at once —
// the generation study's fan-out, where walks trade pooled scratch — and
// expects every walk to match the serial one.
func TestGenerateConcurrent(t *testing.T) {
	models := []*Model{Build(randomSeeds(120, 0, 32, 1)), Build(counterSeeds(200))}
	want := [][]ip6.Addr{models[0].Generate(300), models[1].Generate(300)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got := models[(g+i)%2].Generate(300)
				if !slices.Equal(got, want[(g+i)%2]) {
					t.Errorf("goroutine %d walk %d differs from the serial walk", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzSeeds decodes eight bytes per seed: the top 16 bits (segment 0),
// one subnet byte and 40 bits of interface identifier.
func fuzzSeeds(data []byte) []ip6.Addr {
	var seeds []ip6.Addr
	for ; len(data) >= 8 && len(seeds) < 256; data = data[8:] {
		hi := uint64(data[0])<<56 | uint64(data[1])<<48 | 0x0db8<<32 | uint64(data[2])
		lo := uint64(data[3])<<32 | uint64(data[4])<<24 | uint64(data[5])<<16 | uint64(data[6])<<8 | uint64(data[7])
		seeds = append(seeds, ip6.AddrFromUint64(hi, lo))
	}
	return seeds
}

// FuzzGenerateOrder builds a model from fuzzed seed bytes and requires
// the walk and the oracle to agree on the whole output sequence.
func FuzzGenerateOrder(f *testing.F) {
	encode := func(seeds []ip6.Addr) []byte {
		var data []byte
		for _, a := range seeds {
			hi, lo := a.Hi(), a.Lo()
			data = append(data, byte(hi>>56), byte(hi>>48), byte(hi),
				byte(lo>>32), byte(lo>>24), byte(lo>>16), byte(lo>>8), byte(lo))
		}
		return data
	}
	f.Add([]byte{}, uint8(10))
	f.Add(encode(counterSeeds(64)), uint8(100))
	f.Add(encode(randomSeeds(120, 0, 32, 1)), uint8(255))
	f.Add(encode(randomSeeds(200, 0, 40, 2)), uint8(8)) // trims the frontier
	f.Add(encode(randomSeeds(100, 16, 8, 3)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, budget uint8) {
		m := Build(fuzzSeeds(data))
		b := int(budget)
		want, _ := m.generateRef(b)
		assertSameSequence(t, m.Generate(b), want)
	})
}

// TestRandomGenerateGolden pins the random baseline's output for a fixed
// seed: the ablation report prints its hit rate.
func TestRandomGenerateGolden(t *testing.T) {
	h := fnv.New64a()
	for _, a := range Build(counterSeeds(200)).RandomGenerate(100, 7) {
		b := a.As16()
		h.Write(b[:])
	}
	if got, want := h.Sum64(), uint64(0xa9e4826bcc440ea1); got != want {
		t.Errorf("RandomGenerate(100, 7) digest %#x, pinned %#x", got, want)
	}
}

// TestGenerateWarmAllocs pins the walk's allocations at a small constant:
// the result, plus the doubling growth of three scratch slices whenever
// the pool came back empty (after a GC, or under the race detector, which
// drops Puts at random). The seed's walk allocated two objects per
// frontier node — hundreds of thousands on this model.
func TestGenerateWarmAllocs(t *testing.T) {
	m := Build(randomSeeds(400, 0, 48, 2))
	m.Generate(1000)
	if n := testing.AllocsPerRun(10, func() { m.Generate(1000) }); n > 64 {
		t.Errorf("warm Generate(1000) allocates %.0f times, want <= 64", n)
	}
}

func BenchmarkBuild(b *testing.B) {
	seeds := counterSeeds(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(seeds)
	}
}

var sinkAddrs []ip6.Addr

func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		seeds []ip6.Addr
	}{
		{"counter", counterSeeds(2000)},
		{"tie-heavy", randomSeeds(2000, 0, 48, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := Build(bc.seeds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAddrs = m.Generate(1000)
			}
		})
	}
}
