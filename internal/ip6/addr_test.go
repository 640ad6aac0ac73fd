package ip6

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddrValid(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical RFC 5952
	}{
		{"::", "::"},
		{"::1", "::1"},
		{"1::", "1::"},
		{"2001:db8::1", "2001:db8::1"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"2001:DB8::1", "2001:db8::1"},
		{"fe80::1:2:3:4", "fe80::1:2:3:4"},
		{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
		{"0:0:0:0:0:0:0:0", "::"},
		{"1:0:0:2:0:0:0:3", "1:0:0:2::3"},                // rightmost longer run wins
		{"1:0:0:0:2:0:0:3", "1::2:0:0:3"},                // leftmost longest run
		{"2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"}, // no :: for single zero group
		{"::ffff:192.0.2.128", "::ffff:c000:280"},
		{"64:ff9b::192.0.2.33", "64:ff9b::c000:221"},
		{"2001:db8::192.168.1.1", "2001:db8::c0a8:101"},
		{"ff02::2", "ff02::2"},
		{"2001:db8:407:8000::", "2001:db8:407:8000::"},
	}
	for _, c := range cases {
		a, err := ParseAddr(c.in)
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", c.in, err)
			continue
		}
		if got := a.String(); got != c.want {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseAddrInvalid(t *testing.T) {
	cases := []string{
		"", ":", ":::", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7",
		"2001:db8::1::2", "12345::", "g::1", "1:2:3:4:5:6:7:",
		":1:2:3:4:5:6:7", "::ffff:256.0.0.1", "::ffff:1.2.3",
		"::ffff:1.2.3.4.5", "1.2.3.4", "2001:db8::1 ", " 2001:db8::1",
		"2001:db8:::1",
	}
	for _, c := range cases {
		if a, err := ParseAddr(c); err == nil {
			t.Errorf("ParseAddr(%q) = %v, want error", c, a)
		}
	}
}

// TestFormatMatchesNetip cross-validates our RFC 5952 formatter against the
// standard library for random addresses.
func TestFormatMatchesNetip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFromUint64(hi, lo)
		std := netip.AddrFrom16(a.As16())
		return a.String() == std.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestParseMatchesNetip cross-validates parsing: anything netip parses as
// a pure IPv6 literal, we parse to the same bytes.
func TestParseMatchesNetip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		std := netip.AddrFrom16(AddrFromUint64(hi, lo).As16())
		a, err := ParseAddr(std.String())
		if err != nil {
			return false
		}
		return a.As16() == std.As16()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// FuzzParse checks ParseAddr and ParsePrefix against net/netip on
// zoneless input: both accept or both reject, and what both accept
// parses to the same address (for a prefix, the same masked address and
// length). netip reads a literal without a colon as IPv4, which is not an
// IPv6 literal, so its accept counts as a reject there. The seeds include
// the inputs ParseAddr and ParsePrefix once wrongly accepted: IPv4 octets
// with leading zeros and lengths with a sign or leading zeros.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"::", "2001:db8::1", "::ffff:192.0.2.128", "1:2:3:4:5:6:7:8", "1::2::3", "1.2.3.4",
		"::01.2.3.4", "::1.2.3.04", "::0:000.0.0.0", "::1.2.3.0",
		"2001:db8::/32", "2001:db8::1/64", "::/0", "::1/128", "::/129",
		"::/01", "::/032", "::/+1", "::/-0", "::/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.Contains(s, "%") {
			return // zones: netip accepts them, this package has none
		}
		std, err := netip.ParseAddr(s)
		stdOK := err == nil && std.Is6()
		a, err := ParseAddr(s)
		if (err == nil) != stdOK {
			t.Fatalf("ParseAddr(%q) error = %v, netip accepts: %v", s, err, stdOK)
		}
		if stdOK && a.As16() != std.As16() {
			t.Fatalf("ParseAddr(%q) = %v, netip parses %v", s, a, std)
		}
		stdP, err := netip.ParsePrefix(s)
		stdOK = err == nil && stdP.Addr().Is6()
		p, err := ParsePrefix(s)
		if (err == nil) != stdOK {
			t.Fatalf("ParsePrefix(%q) error = %v, netip accepts: %v", s, err, stdOK)
		}
		if stdOK && (p.Addr().As16() != stdP.Masked().Addr().As16() || p.Bits() != stdP.Bits()) {
			t.Fatalf("ParsePrefix(%q) = %v, netip parses %v", s, p, stdP.Masked())
		}
	})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFromUint64(hi, lo)
		b, err := ParseAddr(a.String())
		return err == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestAs16RoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFromUint64(hi, lo)
		return AddrFrom16(a.As16()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNybbleAccess(t *testing.T) {
	a := MustParseAddr("2001:db8:407:8000:0151:2900:77e9:03a8")
	want := "20010db8040780000151290077e903a8"
	for i := 0; i < 32; i++ {
		got := a.Nybble(i)
		exp := hexVal(want[i])
		if got != exp {
			t.Errorf("nybble %d = %x, want %x", i, got, exp)
		}
	}
}

func hexVal(c byte) byte {
	if c >= '0' && c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

func TestWithNybble(t *testing.T) {
	f := func(hi, lo uint64, idx uint8, v uint8) bool {
		a := AddrFromUint64(hi, lo)
		i := int(idx) % 32
		b := a.WithNybble(i, v)
		if b.Nybble(i) != v&0xf {
			return false
		}
		// All other nybbles unchanged.
		for j := 0; j < 32; j++ {
			if j != i && a.Nybble(j) != b.Nybble(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNybblesRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := AddrFromUint64(hi, lo)
		return AddrFromNybbles(a.Nybbles()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpanded(t *testing.T) {
	a := MustParseAddr("2001:db8::1")
	if got, want := a.Expanded(), "2001:0db8:0000:0000:0000:0000:0000:0001"; got != want {
		t.Errorf("Expanded() = %q, want %q", got, want)
	}
}

func TestCompareNextPrev(t *testing.T) {
	a := MustParseAddr("2001:db8::ffff:ffff:ffff:ffff")
	b := a.Next()
	if want := MustParseAddr("2001:db8:0:1::"); b != want {
		t.Errorf("Next() = %v, want %v", b, want)
	}
	if b.Prev() != a {
		t.Errorf("Prev(Next(a)) != a")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Error("Less ordering wrong")
	}
}

func TestSLAACAndMAC(t *testing.T) {
	mac := [6]byte{0x00, 0x1a, 0x2b, 0x3c, 0x4d, 0x5e}
	net := MustParseAddr("2001:db8:1:2::")
	a := FromMAC(net, mac)
	if !a.IsSLAAC() {
		t.Fatalf("FromMAC result %v not detected as SLAAC", a)
	}
	got, ok := a.MAC()
	if !ok || got != mac {
		t.Errorf("MAC() = %v,%v want %v,true", got, ok, mac)
	}
	// The u/l bit must be flipped in the IID.
	if want := MustParseAddr("2001:db8:1:2:21a:2bff:fe3c:4d5e"); a != want {
		t.Errorf("FromMAC = %v, want %v", a, want)
	}
	if MustParseAddr("2001:db8::1").IsSLAAC() {
		t.Error("counter address misdetected as SLAAC")
	}
}

func TestIIDHammingWeight(t *testing.T) {
	if w := MustParseAddr("2001:db8::1").IIDHammingWeight(); w != 1 {
		t.Errorf("weight = %d, want 1", w)
	}
	if w := MustParseAddr("2001:db8::ffff:ffff:ffff:ffff").IIDHammingWeight(); w != 64 {
		t.Errorf("weight = %d, want 64", w)
	}
}

func TestBit(t *testing.T) {
	a := MustParseAddr("8000::1")
	if a.Bit(0) != 1 || a.Bit(1) != 0 || a.Bit(127) != 1 || a.Bit(126) != 0 {
		t.Error("Bit() extraction wrong")
	}
}

func BenchmarkParseAddr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = ParseAddr("2001:db8:407:8000:151:2900:77e9:3a8")
	}
}

func BenchmarkFormatAddr(b *testing.B) {
	a := MustParseAddr("2001:db8:407:8000:151:2900:77e9:3a8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.String()
	}
}

func BenchmarkNybbles(b *testing.B) {
	a := MustParseAddr("2001:db8:407:8000:151:2900:77e9:3a8")
	for i := 0; i < b.N; i++ {
		_ = a.Nybbles()
	}
}

func randAddrs(n int, seed int64) []Addr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Addr, n)
	for i := range out {
		out[i] = AddrFromUint64(rng.Uint64(), rng.Uint64())
	}
	return out
}
