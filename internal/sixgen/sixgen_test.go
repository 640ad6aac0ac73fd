package sixgen

import (
	"testing"

	"expanse/internal/ip6"
)

func TestRangeBasics(t *testing.T) {
	a := ip6.MustParseAddr("2001:db8::1")
	r := NewRange(a)
	if r.LogSize() != 0 || !r.Contains(a) {
		t.Fatal("singleton range wrong")
	}
	b := ip6.MustParseAddr("2001:db8::2")
	r.Add(b)
	if r.LogSize() != 0.25 {
		t.Errorf("two-address range log16 size = %v", r.LogSize())
	}
	if !r.Contains(a) || !r.Contains(b) {
		t.Error("range lost members")
	}
	// Contiguous ranges: low nybble interval is [1,2]; ::3 is outside.
	if r.Contains(ip6.MustParseAddr("2001:db8::3")) {
		t.Error("3 should not be in interval [1,2]")
	}
	// But a value between observed extremes IS covered (the gap-filling
	// property 6Gen exploits).
	r.Add(ip6.MustParseAddr("2001:db8::9"))
	if !r.Contains(ip6.MustParseAddr("2001:db8::5")) {
		t.Error("5 should be inside interval [1,9]")
	}
}

func TestRangeUnionLogSize(t *testing.T) {
	r1 := NewRange(ip6.MustParseAddr("2001:db8::1"))
	r2 := NewRange(ip6.MustParseAddr("2001:db8::2"))
	u := r1.Union(r2)
	if u.LogSize() != 0.25 || !u.Contains(ip6.MustParseAddr("2001:db8::2")) {
		t.Errorf("union log16 size = %v", u.LogSize())
	}
	if u.LogSize() <= r1.LogSize() {
		t.Error("union log size must grow")
	}
	// The range spanning :: to ffff:…:ffff is the whole space: 16^32
	// addresses, a log size of 32 where a count would overflow.
	full := NewRange(ip6.MustParseAddr("::"))
	full.Add(ip6.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"))
	if full.LogSize() != 32 || !full.Contains(ip6.MustParseAddr("2001:db8::1")) {
		t.Errorf("full range log16 size = %v", full.LogSize())
	}
}

func TestGrowClustersCounters(t *testing.T) {
	// Two dense counter blocks far apart → at least 2 clusters, each
	// small and dense.
	var seeds []ip6.Addr
	n1 := ip6.MustParseAddr("2001:db8:1:1::")
	n2 := ip6.MustParseAddr("2a00:42:9:9::")
	for i := uint64(1); i <= 50; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(n1.Hi(), i))
		seeds = append(seeds, ip6.AddrFromUint64(n2.Hi(), i))
	}
	clusters := Grow(seeds, Config{})
	if len(clusters) < 2 {
		t.Fatalf("clusters = %d, want >= 2", len(clusters))
	}
	totalSeeds := 0
	for _, c := range clusters {
		totalSeeds += c.Seeds
		if c.Range.LogSize() > 8 {
			t.Errorf("cluster exceeded size bound: %v", c.Range.LogSize())
		}
	}
	if totalSeeds != len(seeds) {
		t.Errorf("clusters cover %d seeds, want %d", totalSeeds, len(seeds))
	}
}

func TestGenerateNeighbors(t *testing.T) {
	// Seeds ::1..::40 (even only) — generation should fill the odd gaps
	// and nearby values in the same /64.
	var seeds []ip6.Addr
	net := ip6.MustParseAddr("2001:db8:7::")
	for i := uint64(2); i <= 80; i += 2 {
		seeds = append(seeds, ip6.AddrFromUint64(net.Hi(), i))
	}
	gen := Generate(seeds, 100, Config{})
	if len(gen) == 0 {
		t.Fatal("nothing generated")
	}
	seedSet := map[ip6.Addr]bool{}
	for _, s := range seeds {
		seedSet[s] = true
	}
	sameNet := 0
	for _, a := range gen {
		if seedSet[a] {
			t.Fatalf("generated seed %v", a)
		}
		if a.Hi() == net.Hi() {
			sameNet++
		}
	}
	if sameNet != len(gen) {
		t.Errorf("%d/%d generated outside the seed /64", len(gen)-sameNet, len(gen))
	}
	// The odd counters are prime candidates (inside the dense range).
	found := map[ip6.Addr]bool{}
	for _, a := range gen {
		found[a] = true
	}
	hits := 0
	for i := uint64(3); i < 80; i += 2 {
		// Odd values composed of the nybbles observed in even seeds may
		// not all be expressible; count those that are.
		if found[ip6.AddrFromUint64(net.Hi(), i)] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no in-gap addresses generated")
	}
}

func TestGenerateBudgetAndUniqueness(t *testing.T) {
	var seeds []ip6.Addr
	net := ip6.MustParseAddr("2001:db8:8::")
	for i := uint64(1); i <= 100; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(net.Hi(), i*3))
	}
	gen := Generate(seeds, 50, Config{})
	if len(gen) > 50 {
		t.Fatalf("budget exceeded: %d", len(gen))
	}
	seen := map[ip6.Addr]bool{}
	for _, a := range gen {
		if seen[a] {
			t.Fatal("duplicate generated")
		}
		seen[a] = true
	}
}

func TestGenerateEmpty(t *testing.T) {
	if g := Generate(nil, 100, Config{}); g != nil {
		t.Error("no seeds should generate nothing")
	}
	if g := Generate([]ip6.Addr{ip6.MustParseAddr("::1")}, 0, Config{}); g != nil {
		t.Error("zero budget should generate nothing")
	}
}

func TestDensestClusterFirst(t *testing.T) {
	// A dense block and a sparse pair: generation budget must go to the
	// dense block first.
	var seeds []ip6.Addr
	dense := ip6.MustParseAddr("2001:db8:d::")
	for i := uint64(1); i <= 60; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(dense.Hi(), i))
	}
	sparse1 := ip6.MustParseAddr("2a00:1:2:3:4:5:6:7")
	sparse2 := ip6.MustParseAddr("2a00:9:8:7:6:5:4:3")
	seeds = append(seeds, sparse1, sparse2)
	gen := Generate(seeds, 30, Config{})
	inDense := 0
	for _, a := range gen {
		if a.Hi() == dense.Hi() {
			inDense++
		}
	}
	if inDense < len(gen)*3/4 {
		t.Errorf("only %d/%d budget went to the dense cluster", inDense, len(gen))
	}
}

func BenchmarkGrow(b *testing.B) {
	var seeds []ip6.Addr
	net := ip6.MustParseAddr("2001:db8::")
	for i := uint64(0); i < 5000; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(net.Hi()+i/500, i%500+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Grow(seeds, Config{})
	}
}

func BenchmarkGenerate6Gen(b *testing.B) {
	var seeds []ip6.Addr
	net := ip6.MustParseAddr("2001:db8::")
	for i := uint64(0); i < 2000; i++ {
		seeds = append(seeds, ip6.AddrFromUint64(net.Hi(), i*2+2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(seeds, 1000, Config{})
	}
}
