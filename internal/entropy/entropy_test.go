package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

// sorted returns a sorted copy of the addresses, the form the grouping
// APIs consume (the data plane's cached sorted view).
func sorted(addrs []ip6.Addr) []ip6.Addr {
	cp := append([]ip6.Addr(nil), addrs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return cp
}

func TestFingerprintCounterScheme(t *testing.T) {
	// Counter addresses: only the last nybbles vary.
	var addrs []ip6.Addr
	base := ip6.MustParseAddr("2001:db8:1:1::")
	for i := uint64(0); i < 256; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(base.Hi(), i))
	}
	fp := FingerprintSeq(addrs, 9, 32, 1)
	if len(fp) != 24 {
		t.Fatalf("F932 length = %d, want 24", len(fp))
	}
	// Nybbles 9..30 constant (entropy 0); nybbles 31-32 (the counter)
	// close to 1.
	for i := 0; i < 22; i++ {
		if fp[i] != 0 {
			t.Errorf("nybble %d entropy = %v, want 0", i+9, fp[i])
		}
	}
	if fp[22] < 0.9 || fp[23] < 0.9 {
		t.Errorf("counter nybbles entropy = %v,%v, want ~1", fp[22], fp[23])
	}
}

func TestFingerprintRandomScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var addrs []ip6.Addr
	base := ip6.MustParseAddr("2001:db8:2::")
	for i := 0; i < 1000; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(base.Hi(), rng.Uint64()))
	}
	fp := FingerprintSeq(addrs, 17, 32, 1)
	if len(fp) != 16 {
		t.Fatalf("F1732 length = %d", len(fp))
	}
	for i, h := range fp {
		if h < 0.9 {
			t.Errorf("random IID nybble %d entropy = %v, want ~1", i+17, h)
		}
	}
}

func TestFingerprintSLAAC(t *testing.T) {
	// EUI-64 addresses: ff:fe at nybbles 23-26 is constant.
	var addrs []ip6.Addr
	net := ip6.MustParseAddr("2001:db8:3::")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		mac := [6]byte{0x28, 0xfd, 0x80, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		addrs = append(addrs, ip6.FromMAC(net, mac))
	}
	fp := FingerprintSeq(addrs, 17, 32, 1)
	// Nybbles 23-26 (indices 6..9 in F1732) are ff:fe — constant.
	for i := 6; i <= 9; i++ {
		if fp[i] != 0 {
			t.Errorf("ff:fe nybble %d entropy = %v, want 0", i+17, fp[i])
		}
	}
	// The OUI nybbles (17-22) are constant too for a single vendor.
	for i := 0; i < 6; i++ {
		if fp[i] > 0.3 {
			t.Errorf("OUI nybble entropy = %v, want low", fp[i])
		}
	}
	// Device-serial nybbles (27-32) vary.
	if fp[12] < 0.8 {
		t.Errorf("serial nybble entropy = %v, want high", fp[12])
	}
}

func TestFingerprintBoundsClamped(t *testing.T) {
	addrs := []ip6.Addr{ip6.MustParseAddr("::1")}
	if fp := FingerprintSeq(addrs, -3, 99, 1); len(fp) != 32 {
		t.Errorf("clamped fingerprint length = %d, want 32", len(fp))
	}
	if fp := FingerprintSeq(addrs, 20, 10, 1); fp != nil {
		t.Error("inverted range should give nil")
	}
}

// TestFingerprintSeqAcrossWorkers pins that the chunk-parallel nybble
// counting is byte-identical for every worker count, above and below the
// parallel threshold.
func TestFingerprintSeqAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{100, parallelMin - 1, parallelMin, 3*parallelMin + 17} {
		addrs := make([]ip6.Addr, n)
		for i := range addrs {
			addrs[i] = ip6.AddrFromUint64(rng.Uint64(), rng.Uint64())
		}
		ref := FingerprintSeq(addrs, 1, 32, 1)
		for _, w := range []int{4, 16} {
			got := FingerprintSeq(addrs, 1, 32, w)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("n=%d workers=%d: fingerprint differs from serial", n, w)
			}
		}
	}
}

func TestByPrefixLen(t *testing.T) {
	var addrs []ip6.Addr
	// Two /32s: one with 150 counter addresses, one with 150 random, one
	// with just 50 (below min).
	a32 := ip6.MustParseAddr("2001:db8::")
	b32 := ip6.MustParseAddr("2001:dead::")
	c32 := ip6.MustParseAddr("2001:beef::")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(a32.Hi(), uint64(i)))
		addrs = append(addrs, ip6.AddrFromUint64(b32.Hi(), rng.Uint64()))
	}
	for i := 0; i < 50; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(c32.Hi(), uint64(i)))
	}
	groups := ByPrefixLen(sorted(addrs), 32, 100, 9, 32, 1)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (min filter)", len(groups))
	}
	for _, g := range groups {
		if g.Size != 150 || g.Prefix.Bits() != 32 {
			t.Errorf("group %+v wrong", g.Key)
		}
		if len(g.FP) != 24 {
			t.Errorf("fingerprint dim %d", len(g.FP))
		}
	}
	// Counter group has near-zero mean entropy; random group near 1.
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	var counterMean, randomMean float64
	for _, g := range groups {
		if g.Prefix.Contains(a32) {
			counterMean = mean(g.FP)
		} else {
			randomMean = mean(g.FP)
		}
	}
	// The random group still has constant subnet nybbles 9-16, so its
	// F932 mean is ~16/24 ≈ 0.67, not ~1.
	if counterMean > 0.2 || randomMean < 0.55 {
		t.Errorf("means: counter %v random %v", counterMean, randomMean)
	}
}

// mapByPrefixLen is the pre-refactor map-bucketing implementation, kept as
// the reference for the sorted-run grouping property test.
func mapByPrefixLen(addrs []ip6.Addr, bits, min, a, b int) []Group {
	buckets := make(map[ip6.Prefix][]ip6.Addr)
	for _, addr := range addrs {
		p := ip6.PrefixFrom(addr, bits)
		buckets[p] = append(buckets[p], addr)
	}
	var out []Group
	for p, list := range buckets {
		if len(list) < min {
			continue
		}
		out = append(out, Group{
			Key:    p.String(),
			Prefix: p,
			Size:   len(list),
			FP:     FingerprintSeq(list, a, b, 1),
		})
	}
	sortGroups(out)
	return out
}

// TestByPrefixLenMatchesMapReference pins the boundary-scan grouping over
// the sorted view against the old map-bucketing implementation on random
// address sets: same groups, same sizes, same fingerprints, same order.
func TestByPrefixLenMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		addrs := make([]ip6.Addr, n)
		for i := range addrs {
			// A handful of /32s with wildly different densities.
			hi := uint64(0x2001_0db8_0000_0000) | uint64(rng.Intn(6))<<32
			addrs[i] = ip6.AddrFromUint64(hi, uint64(rng.Intn(1<<uint(4+rng.Intn(16)))))
		}
		min := 1 + rng.Intn(200)
		want := mapByPrefixLen(addrs, 32, min, 9, 32)
		for _, w := range []int{1, 4} {
			got := ByPrefixLen(sorted(addrs), 32, min, 9, 32, w)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Key != want[i].Key || got[i].Size != want[i].Size ||
					got[i].Prefix != want[i].Prefix ||
					!reflect.DeepEqual(got[i].FP, want[i].FP) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestByASAndByBGPPrefix(t *testing.T) {
	table := bgp.NewTable(nil, []bgp.Announcement{
		{Prefix: ip6.MustParsePrefix("2001:db8::/32"), Origin: 100},
		{Prefix: ip6.MustParsePrefix("2001:dead::/32"), Origin: 200},
	})
	var addrs []ip6.Addr
	for i := 0; i < 120; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(ip6.MustParseAddr("2001:db8::").Hi(), uint64(i)))
	}
	// Unrouted addresses must be skipped silently.
	addrs = append(addrs, ip6.MustParseAddr("fd00::1"))
	byAS := ByAS(addrs, table, 100, 9, 32, 1)
	if len(byAS) != 1 || byAS[0].ASN != 100 || byAS[0].Key != "AS100" {
		t.Errorf("ByAS = %+v", byAS)
	}
	byPfx := ByBGPPrefix(addrs, table, 100, 9, 32, 1)
	if len(byPfx) != 1 || byPfx[0].Prefix != ip6.MustParsePrefix("2001:db8::/32") {
		t.Errorf("ByBGPPrefix = %+v", byPfx)
	}
	if byPfx[0].ASN != 100 {
		t.Errorf("origin not recorded: %d", byPfx[0].ASN)
	}
}

// routedWorld builds a table of twelve /32s, plus the extra
// announcements, and a routed address population with skewed per-prefix
// densities inside the /32s for the determinism tests.
func routedWorld(seed int64, nAddrs int, extra ...bgp.Announcement) (*bgp.Table, []ip6.Addr) {
	rng := rand.New(rand.NewSource(seed))
	var anns []bgp.Announcement
	var prefixes []ip6.Prefix
	for i := 0; i < 12; i++ {
		p := ip6.MustParsePrefix(fmt.Sprintf("2001:%x::/32", 0xd00+i))
		anns = append(anns, bgp.Announcement{Prefix: p, Origin: bgp.ASN(100 + i%5)}) // several prefixes share an AS
		prefixes = append(prefixes, p)
	}
	table := bgp.NewTable(nil, append(anns, extra...))
	addrs := make([]ip6.Addr, nAddrs)
	for i := range addrs {
		p := prefixes[rng.Intn(len(prefixes))]
		addrs[i] = ip6.AddrFromUint64(p.Addr().Hi(), rng.Uint64()>>uint(rng.Intn(48)))
	}
	return table, addrs
}

// TestGroupingAcrossWorkers pins group order, membership and fingerprints
// of all three groupings across worker counts 1/4/16.
func TestGroupingAcrossWorkers(t *testing.T) {
	table, addrs := routedWorld(21, 20000)
	seq := sorted(addrs)
	type mk func(w int) []Group
	for name, make := range map[string]mk{
		"ByPrefixLen": func(w int) []Group { return ByPrefixLen(seq, 32, 50, 9, 32, w) },
		"ByBGPPrefix": func(w int) []Group { return ByBGPPrefix(seq, table, 50, 9, 32, w) },
		"ByAS":        func(w int) []Group { return ByAS(seq, table, 50, 9, 32, w) },
	} {
		ref := make(1)
		if len(ref) == 0 {
			t.Fatalf("%s: no groups formed", name)
		}
		for _, w := range []int{4, 16} {
			got := make(w)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: workers=%d differs from workers=1", name, w)
			}
		}
	}
}

func TestGroupOrdering(t *testing.T) {
	var addrs []ip6.Addr
	for i := 0; i < 300; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(ip6.MustParseAddr("2001:db8::").Hi(), uint64(i)))
	}
	for i := 0; i < 150; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(ip6.MustParseAddr("2001:dead::").Hi(), uint64(i)))
	}
	gs := ByPrefixLen(sorted(addrs), 32, 100, 9, 32, 1)
	if len(gs) != 2 || gs[0].Size < gs[1].Size {
		t.Error("groups not sorted by size descending")
	}
}

func TestVectors(t *testing.T) {
	gs := []Group{{FP: []float64{0.1}}, {FP: []float64{0.9}}}
	v := Vectors(gs)
	if len(v) != 2 || v[0][0] != 0.1 || v[1][0] != 0.9 {
		t.Error("Vectors extraction wrong")
	}
}

func TestFingerprintEntropyInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var addrs []ip6.Addr
	for i := 0; i < 500; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
	}
	for _, h := range FingerprintSeq(addrs, 1, 32, 1) {
		if h < 0 || h > 1 || math.IsNaN(h) {
			t.Fatalf("entropy out of range: %v", h)
		}
	}
}

// benchAddrs builds a sorted synthetic hitlist: 64 /32s with a heavy-tail
// density split, the shape ByPrefixLen sees from the data plane.
func benchAddrs(n int) []ip6.Addr {
	rng := rand.New(rand.NewSource(99))
	addrs := make([]ip6.Addr, n)
	for i := range addrs {
		hi := uint64(0x2001_0db8_0000_0000) | uint64(rng.Intn(64))<<32
		addrs[i] = ip6.AddrFromUint64(hi, rng.Uint64())
	}
	return sorted(addrs)
}

func BenchmarkByPrefixLen(b *testing.B) {
	seq := benchAddrs(1 << 18)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ByPrefixLen(seq, 32, 100, 9, 32, w)
			}
		})
	}
}

// BenchmarkLegacyByPrefixLen measures the old map-bucketing path on the
// same (materialized) input for comparison.
func BenchmarkLegacyByPrefixLen(b *testing.B) {
	addrs := benchAddrs(1 << 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapByPrefixLen(addrs, 32, 100, 9, 32)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	seq := benchAddrs(1 << 18)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FingerprintSeq(seq, 9, 32, w)
			}
		})
	}
}
