package ip6

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 || p.Addr() != MustParseAddr("2001:db8::") {
		t.Errorf("got %v", p)
	}
	// Address must be masked.
	p2 := MustParsePrefix("2001:db8::1/32")
	if p2 != p {
		t.Errorf("masking: %v != %v", p2, p)
	}
	if s := p.String(); s != "2001:db8::/32" {
		t.Errorf("String() = %q", s)
	}
	for _, bad := range []string{"", "2001:db8::", "2001:db8::/129", "2001:db8::/-1", "zz::/32", "2001:db8::/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	for _, in := range []string{"2001:db8::", "2001:db8::1", "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"} {
		if !p.Contains(MustParseAddr(in)) {
			t.Errorf("%v should contain %s", p, in)
		}
	}
	for _, out := range []string{"2001:db9::", "2001:db7:ffff::", "::", "ffff::"} {
		if p.Contains(MustParseAddr(out)) {
			t.Errorf("%v should not contain %s", p, out)
		}
	}
	// /0 contains everything; /128 contains exactly itself.
	if !MustParsePrefix("::/0").Contains(MustParseAddr("ffff::1")) {
		t.Error("/0 must contain all")
	}
	p128 := MustParsePrefix("2001:db8::1/128")
	if !p128.Contains(MustParseAddr("2001:db8::1")) || p128.Contains(MustParseAddr("2001:db8::2")) {
		t.Error("/128 containment wrong")
	}
}

func TestPrefixContainsPrefixOverlaps(t *testing.T) {
	p32 := MustParsePrefix("2001:db8::/32")
	p48 := MustParsePrefix("2001:db8:1::/48")
	other := MustParsePrefix("2001:db9::/32")
	if !p32.ContainsPrefix(p48) || p48.ContainsPrefix(p32) {
		t.Error("ContainsPrefix wrong")
	}
	if !p32.ContainsPrefix(p32) {
		t.Error("prefix must contain itself")
	}
	if !p32.Overlaps(p48) || !p48.Overlaps(p32) {
		t.Error("Overlaps must be symmetric for nested prefixes")
	}
	if p32.Overlaps(other) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestPrefixLast(t *testing.T) {
	cases := []struct{ p, want string }{
		{"2001:db8::/32", "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"2001:db8::/64", "2001:db8::ffff:ffff:ffff:ffff"},
		{"2001:db8::/96", "2001:db8::ffff:ffff"},
		{"2001:db8::1/128", "2001:db8::1"},
	}
	for _, c := range cases {
		if got := MustParsePrefix(c.p).Last(); got != MustParseAddr(c.want) {
			t.Errorf("Last(%s) = %v, want %s", c.p, got, c.want)
		}
	}
}

func TestSubprefix(t *testing.T) {
	p := MustParsePrefix("2001:db8:407:8000::/64")
	// The paper's Table 3 fan-out: /68 subprefixes 2001:db8:407:8000:[0-f]000::
	for i := uint64(0); i < 16; i++ {
		sub := p.Subprefix(68, i)
		if sub.Bits() != 68 {
			t.Fatalf("bits = %d", sub.Bits())
		}
		if got := sub.Addr().Nybble(16); got != byte(i) {
			t.Errorf("subprefix %d: nybble 16 = %x", i, got)
		}
		if !p.ContainsPrefix(sub) {
			t.Errorf("subprefix %v not inside %v", sub, p)
		}
	}
	// Straddling the 64-bit boundary: /60 parent, /68 children.
	p60 := MustParsePrefix("2001:db8:407:80::/60")
	seen := map[Prefix]bool{}
	for i := uint64(0); i < 256; i++ {
		sub := p60.Subprefix(68, i)
		if !p60.ContainsPrefix(sub) {
			t.Fatalf("straddle subprefix %v outside %v", sub, p60)
		}
		seen[sub] = true
	}
	if len(seen) != 256 {
		t.Errorf("straddle fan-out produced %d distinct subprefixes, want 256", len(seen))
	}
}

func TestRandomAddrInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ps := range []string{"::/0", "2001:db8::/32", "2001:db8::/64", "2001:db8::/96", "2001:db8::/124", "2001:db8::1/128"} {
		p := MustParsePrefix(ps)
		for i := 0; i < 100; i++ {
			a := p.RandomAddr(rng)
			if !p.Contains(a) {
				t.Fatalf("RandomAddr(%s) = %v outside prefix", ps, a)
			}
		}
	}
}

func TestRandomAddrCoversHostBits(t *testing.T) {
	// With 1000 draws from a /124 (16 addresses) we must see most values.
	rng := rand.New(rand.NewSource(7))
	p := MustParsePrefix("2001:db8::/124")
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		seen[p.RandomAddr(rng)] = true
	}
	if len(seen) < 14 {
		t.Errorf("only %d/16 addresses seen in 1000 draws", len(seen))
	}
}

func TestNthAddr(t *testing.T) {
	p := MustParsePrefix("2001:db8::/64")
	if got := p.NthAddr(0); got != MustParseAddr("2001:db8::") {
		t.Errorf("NthAddr(0) = %v", got)
	}
	if got := p.NthAddr(255); got != MustParseAddr("2001:db8::ff") {
		t.Errorf("NthAddr(255) = %v", got)
	}
	p96 := MustParsePrefix("2001:db8::/96")
	// Overflow wraps within host bits.
	if got := p96.NthAddr(1 << 40); !p96.Contains(got) {
		t.Errorf("NthAddr overflow escaped prefix: %v", got)
	}
}

func TestComparePrefix(t *testing.T) {
	a := MustParsePrefix("2001:db8::/32")
	b := MustParsePrefix("2001:db8::/48")
	c := MustParsePrefix("2001:db9::/32")
	if ComparePrefix(a, b) >= 0 {
		t.Error("shorter prefix must sort first")
	}
	if ComparePrefix(a, c) >= 0 {
		t.Error("same length: lower address first")
	}
	if ComparePrefix(a, a) != 0 {
		t.Error("equal prefixes compare 0")
	}
	// CompareNested: address first, so the /48 inside a sorts between a
	// and c although it is longer than both.
	if CompareNested(a, b) >= 0 || CompareNested(b, c) >= 0 || CompareNested(c, a) <= 0 || CompareNested(b, b) != 0 {
		t.Error("CompareNested must order by address, then length")
	}
}

// Property: prefix round-trips through its string form.
func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, l uint8) bool {
		p := PrefixFrom(AddrFromUint64(hi, lo), int(l)%129)
		q, err := ParsePrefix(p.String())
		return err == nil && p == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: every random address drawn from a prefix is contained in it,
// and masking is idempotent.
func TestPrefixRandomContainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(hi, lo uint64, l uint8) bool {
		p := PrefixFrom(AddrFromUint64(hi, lo), int(l)%129)
		a := p.RandomAddr(rng)
		return p.Contains(a) && PrefixFrom(p.Addr(), p.Bits()) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSortedKeys pins the maporder-sanctioned helper: ComparePrefix
// order (length first, then base address), every key exactly once.
func TestSortedKeys(t *testing.T) {
	m := map[Prefix]int{
		MustParsePrefix("2001:db8:2::/48"):   1,
		MustParsePrefix("2001:db8::/32"):     2,
		MustParsePrefix("2001:db8:1::/48"):   3,
		MustParsePrefix("2001:db8::/64"):     4,
		MustParsePrefix("2001:db8:1::1/128"): 5,
	}
	keys := SortedKeys(m)
	if len(keys) != len(m) {
		t.Fatalf("SortedKeys: %d keys, want %d", len(keys), len(m))
	}
	for i := 1; i < len(keys); i++ {
		if ComparePrefix(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("SortedKeys out of order at %d: %v then %v", i, keys[i-1], keys[i])
		}
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Fatalf("SortedKeys invented key %v", k)
		}
	}
}
