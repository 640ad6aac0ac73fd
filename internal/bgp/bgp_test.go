package bgp

import (
	"math/rand"
	"testing"

	"expanse/internal/ip6"
)

func TestTableBasics(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8::/32")
	tb := NewTable([]ASInfo{
		{ASN: 64496, Name: "Placeholder", Kind: KindISP, Country: "ZZ"},
		{ASN: 64496, Name: "Example", Kind: KindHoster, Country: "DE"}, // the later entry wins
	}, []Announcement{{Prefix: p, Origin: 64496}})

	got, asn, ok := tb.Lookup(ip6.MustParseAddr("2001:db8::1"))
	if !ok || asn != 64496 || got != p {
		t.Fatalf("Lookup = %v,%d,%v", got, asn, ok)
	}
	if _, _, ok := tb.Lookup(ip6.MustParseAddr("2001:db9::1")); ok {
		t.Error("unrouted address matched")
	}
	if !tb.IsRouted(ip6.MustParseAddr("2001:db8::1")) {
		t.Error("IsRouted false for routed address")
	}
	if asn, ok := tb.Origin(ip6.MustParseAddr("2001:db8::1")); !ok || asn != 64496 {
		t.Error("Origin wrong")
	}
	if info := tb.AS(64496); info.Name != "Example" || len(tb.as) != 1 {
		t.Error("registry lookup wrong")
	}
	if info := tb.AS(65000); info.Name != "AS65000" {
		t.Errorf("placeholder name = %q", info.Name)
	}
}

func TestMoreSpecificWins(t *testing.T) {
	tb := NewTable(nil, []Announcement{
		{Prefix: ip6.MustParsePrefix("2001:db8:1::/48"), Origin: 2},
		{Prefix: ip6.MustParsePrefix("2001:db8::/32"), Origin: 1},
	})
	if _, asn, _ := tb.Lookup(ip6.MustParseAddr("2001:db8:1::5")); asn != 2 {
		t.Errorf("more specific not preferred: ASN %d", asn)
	}
	if _, asn, _ := tb.Lookup(ip6.MustParseAddr("2001:db8:2::5")); asn != 1 {
		t.Errorf("covering prefix not used: ASN %d", asn)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := RegistryConfig{ASes: 100, PrefixesPerAS: 3, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.NumPrefixes() != b.NumPrefixes() || len(a.as) != len(b.as) {
		t.Fatal("generation not deterministic in counts")
	}
	pa, pb := a.Announcements(), b.Announcements()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("announcement %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestGenerateShape(t *testing.T) {
	tb := Generate(RegistryConfig{ASes: 500, PrefixesPerAS: 4.5, Seed: 1})
	if len(tb.as) != 500+len(Majors) {
		t.Errorf("ASes = %d", len(tb.as))
	}
	// Every announcement's origin is registered and every prefix is
	// between /29 and /48.
	for _, ann := range tb.Announcements() {
		if ann.Prefix.Bits() < 29 || ann.Prefix.Bits() > 48 {
			t.Fatalf("prefix length out of range: %v", ann.Prefix)
		}
		if tb.AS(ann.Origin).Name == "" {
			t.Fatalf("unregistered origin %d", ann.Origin)
		}
	}
	// Amazon must announce its 189 /48s plus 2 /32s.
	amazon := FindASN("Amazon")
	ps := tb.PrefixesOf(amazon)
	n48 := 0
	for _, p := range ps {
		if p.Bits() == 48 {
			n48++
		}
	}
	if n48 != 189 {
		t.Errorf("Amazon /48 count = %d, want 189", n48)
	}
	// Announcements must not collide across ASes: every /29 allocation is
	// distinct, so lookups of random addresses inside a prefix must return
	// the same origin as the announcement (or a more specific one from the
	// same AS).
	rng := rand.New(rand.NewSource(2))
	anns := tb.Announcements()
	for i := 0; i < 300; i++ {
		ann := anns[rng.Intn(len(anns))]
		a := ann.Prefix.RandomAddr(rng)
		_, asn, ok := tb.Lookup(a)
		if !ok {
			t.Fatalf("address %v inside announced %v not routed", a, ann.Prefix)
		}
		if asn != ann.Origin {
			// A more specific of another AS would be a generation bug.
			t.Fatalf("address %v: origin %d, announced %v by %d", a, asn, ann.Prefix, ann.Origin)
		}
	}
}

func TestGenerateScalesRoughly(t *testing.T) {
	cfg := DefaultRegistryConfig()
	tb := Generate(cfg)
	// ~2.2k ASes -> expect prefix count an order of magnitude above AS
	// count is wrong; should be a few per AS.
	ratio := float64(tb.NumPrefixes()) / float64(len(tb.as))
	if ratio < 1.5 || ratio > 12 {
		t.Errorf("prefixes per AS = %.1f, outside plausible range", ratio)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindCDN: "cdn", KindCloud: "cloud", KindHoster: "hoster",
		KindISP: "isp", KindAcademic: "academic", KindEnterprise: "enterprise",
		KindInternetService: "service",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestFindASN(t *testing.T) {
	if FindASN("Amazon") == 0 {
		t.Error("Amazon not found")
	}
	if FindASN("NotAnAS") != 0 {
		t.Error("unknown AS should yield 0")
	}
}

func TestASesSorted(t *testing.T) {
	tb := Generate(RegistryConfig{ASes: 50, PrefixesPerAS: 2, Seed: 3})
	ases := tb.ASes()
	for i := 1; i < len(ases); i++ {
		if ases[i-1].ASN >= ases[i].ASN {
			t.Fatal("ASes() not sorted")
		}
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := Generate(DefaultRegistryConfig())
	rng := rand.New(rand.NewSource(9))
	anns := tb.Announcements()
	addrs := make([]ip6.Addr, 4096)
	for i := range addrs {
		addrs[i] = anns[rng.Intn(len(anns))].Prefix.RandomAddr(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addrs[i%len(addrs)])
	}
}
