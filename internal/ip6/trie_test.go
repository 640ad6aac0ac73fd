package ip6

import (
	"math/rand"
	"testing"
)

func TestTrieBasic(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("2001:db8::/32"), "a")
	tr.Insert(MustParsePrefix("2001:db8:1::/48"), "b")
	tr.Insert(MustParsePrefix("2001:db8:1:2::/64"), "c")

	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}

	cases := []struct {
		addr string
		want string
		bits int
	}{
		{"2001:db8::1", "a", 32},
		{"2001:db8:1::1", "b", 48},
		{"2001:db8:1:2::1", "c", 64},
		{"2001:db8:1:3::1", "b", 48},
		{"2001:db8:2::1", "a", 32},
	}
	for _, c := range cases {
		p, v, ok := tr.Lookup(MustParseAddr(c.addr))
		if !ok || v != c.want || p.Bits() != c.bits {
			t.Errorf("Lookup(%s) = %v,%q,%v want %q at /%d", c.addr, p, v, ok, c.want, c.bits)
		}
	}
	if _, _, ok := tr.Lookup(MustParseAddr("2001:db9::1")); ok {
		t.Error("Lookup outside stored prefixes should miss")
	}
}

func TestTrieLookupShortest(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("2001:db8::/32"), 1)
	tr.Insert(MustParsePrefix("2001:db8:1::/48"), 2)
	p, v, ok := tr.LookupShortest(MustParseAddr("2001:db8:1::5"))
	if !ok || v != 1 || p.Bits() != 32 {
		t.Errorf("LookupShortest = %v,%d,%v", p, v, ok)
	}
}

func TestTrieGet(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("2001:db8::/32")
	tr.Insert(p, 7)
	if v, ok := tr.Get(p); !ok || v != 7 {
		t.Error("Get after Insert failed")
	}
	if _, ok := tr.Get(MustParsePrefix("2001:db8::/48")); ok {
		t.Error("Get of unstored more-specific must miss")
	}
}

func TestTrieInsertReplaces(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("2001:db8::/32")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("::/0"), "default")
	tr.Insert(MustParsePrefix("2001:db8::/32"), "specific")
	if _, v, _ := tr.Lookup(MustParseAddr("ffff::1")); v != "default" {
		t.Error("default route not matched")
	}
	if _, v, _ := tr.Lookup(MustParseAddr("2001:db8::1")); v != "specific" {
		t.Error("specific route not preferred")
	}
}

func TestTrieHostRoute(t *testing.T) {
	var tr Trie[int]
	a := MustParseAddr("2001:db8::1")
	tr.Insert(PrefixFrom(a, 128), 9)
	if _, v, ok := tr.Lookup(a); !ok || v != 9 {
		t.Error("host /128 route failed")
	}
	if _, _, ok := tr.Lookup(a.Next()); ok {
		t.Error("adjacent address must miss")
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie[int]
	ps := []string{"2001:db8::/32", "2001:db8::/48", "2001:db8:1::/48", "::/0", "ff00::/8"}
	for i, s := range ps {
		tr.Insert(MustParsePrefix(s), i)
	}
	var walked []Prefix
	tr.Walk(func(p Prefix, _ int) bool {
		walked = append(walked, p)
		return true
	})
	if len(walked) != len(ps) {
		t.Fatalf("walked %d prefixes, want %d", len(walked), len(ps))
	}
	// Depth-first zero-branch-first: supernets before subnets, addresses ascending.
	for i := 1; i < len(walked); i++ {
		a, b := walked[i-1], walked[i]
		if a.Addr().Compare(b.Addr()) > 0 {
			t.Errorf("walk order violated: %v before %v", a, b)
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(Prefix, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

// TestTrieMatchesLinearScan is the core property test: for random prefix
// sets, trie LPM must agree with a brute-force longest-match scan.
func TestTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		var tr Trie[int]
		type entry struct {
			p Prefix
			v int
		}
		var entries []entry
		seen := map[Prefix]bool{}
		for i := 0; i < 200; i++ {
			l := 8 + rng.Intn(14)*4 // 8..60 in 4-bit steps
			p := PrefixFrom(AddrFromUint64(rng.Uint64()&0xffff_ffff_0000_0000, 0), l)
			if seen[p] {
				continue
			}
			seen[p] = true
			tr.Insert(p, i)
			entries = append(entries, entry{p, i})
		}
		for probe := 0; probe < 500; probe++ {
			a := AddrFromUint64(rng.Uint64(), rng.Uint64())
			// Half the probes land inside a random stored prefix to
			// exercise hits, not just misses.
			if probe%2 == 0 && len(entries) > 0 {
				a = entries[rng.Intn(len(entries))].p.RandomAddr(rng)
			}
			bestLen, bestVal, found := -1, 0, false
			for _, e := range entries {
				if e.p.Contains(a) && e.p.Bits() > bestLen {
					bestLen, bestVal, found = e.p.Bits(), e.v, true
				}
			}
			p, v, ok := tr.Lookup(a)
			if ok != found {
				t.Fatalf("trial %d: Lookup(%v) ok=%v, brute=%v", trial, a, ok, found)
			}
			if ok && (v != bestVal || p.Bits() != bestLen) {
				t.Fatalf("trial %d: Lookup(%v) = %d at /%d, brute = %d at /%d",
					trial, a, v, p.Bits(), bestVal, bestLen)
			}
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25000; i++ { // ~ paper's 25.5k announced prefixes
		l := 16 + rng.Intn(13)*4
		tr.Insert(PrefixFrom(AddrFromUint64(rng.Uint64(), 0), l), i)
	}
	addrs := randAddrs(1024, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	prefixes := make([]Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = PrefixFrom(AddrFromUint64(rng.Uint64(), 0), 16+rng.Intn(13)*4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr Trie[int]
		for j, p := range prefixes {
			tr.Insert(p, j)
		}
	}
}
