package dnssim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

func testWorld() *netsim.Internet {
	return netsim.New(netsim.Config{
		Seed:      42,
		Registry:  bgp.RegistryConfig{ASes: 250, PrefixesPerAS: 3.5, Seed: 7},
		Scale:     0.08,
		EpochDays: 7,
		Epochs:    6,
	})
}

var world = testWorld()
var server = New(world)

// TestDomainsBuilt holds every domain's key to its name as New formatted
// it before the zone became key columns, and checks every class of name
// is present.
func TestDomainsBuilt(t *testing.T) {
	names := refNames(world)
	if server.Len() != len(names) {
		t.Fatalf("%d domains, %d names rendered", server.Len(), len(names))
	}
	for i, name := range names {
		if got, want := server.Key(i), hash64.String(name); got != want {
			t.Fatalf("domain %d: key %#x, hash of %q is %#x", i, got, name, want)
		}
	}
	classes := map[string]int{}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "host"):
			classes["farm"]++
		case strings.HasPrefix(name, "cust"):
			classes["alias"]++
		case strings.HasPrefix(name, "old"):
			classes["stale"]++
		case strings.HasPrefix(name, "nas-"):
			classes["nas"]++
		}
	}
	for _, c := range []string{"farm", "alias", "stale", "nas"} {
		if classes[c] == 0 {
			t.Errorf("no %s domains", c)
		}
	}
}

// TestDomainsPinned digests every domain's key, channels, static target
// and resolution on three days; the constant was recorded when domains
// were formatted name strings, with the key as the hash of the name. The
// world and its zone are built at GOMAXPROCS 1, 2 and 8: both fan out,
// and neither may depend on it.
func TestDomainsPinned(t *testing.T) {
	const want = "845f18a6561283b6a2615ff097f7052531bc7653b0f3b98e5469c706126b75f5"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := domainDigest(New(testWorld())); got != want {
			t.Errorf("GOMAXPROCS %d: domain digest %s, want %s", procs, got, want)
		}
	}
}

func domainDigest(s *Server) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wAddr := func(a ip6.Addr) { w64(a.Hi()); w64(a.Lo()) }
	w64(uint64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		w64(s.Key(i))
		w64(uint64(s.Vis(i)))
		wAddr(s.static[i])
		for _, day := range []int{0, 30, 45} {
			wAddr(s.Resolve(i, day))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BenchmarkDNSNew measures the DNS view's construction over the
// scale-0.25 default-registry world (the daily benchmark's): the forward
// rows and the reverse zone. Run it at -cpu 1,2,4 for the DNS stage's
// per-core curve.
func BenchmarkDNSNew(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Scale = 0.25
	w := netsim.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(w)
	}
}

// TestNameKeyAllocatesNothing pins the key builder's stack buffer: New
// folds hundreds of thousands of names without one allocation each.
func TestNameKeyAllocatesNothing(t *testing.T) {
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink ^= nameKey(nas, 1<<63, 4294967295) }); n != 0 {
		t.Errorf("nameKey allocates %v times per name", n)
	}
}

func TestStaticResolution(t *testing.T) {
	for i := 0; i < server.Len(); i++ {
		if server.Dynamic(i) {
			continue
		}
		if server.Resolve(i, 0) != server.Resolve(i, 30) {
			t.Fatalf("static domain %d changed resolution", i)
		}
		if server.Resolve(i, 0).IsZero() {
			t.Fatalf("static domain %d resolves to ::", i)
		}
		return
	}
	t.Fatal("no static domains")
}

func TestDynamicResolutionFollowsRotation(t *testing.T) {
	changed := false
	for i := 0; i < server.Len(); i++ {
		if server.Dynamic(i) && server.Resolve(i, 0) != server.Resolve(i, 45) {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("no dynamic domain ever changed address over 45 days")
	}
}

func TestVisibilityChannels(t *testing.T) {
	all := []Vis{VisZoneFile, VisCT, VisFDNS, VisAXFR, VisBlacklist}
	counts := map[Vis]int{}
	for i := 0; i < server.Len(); i++ {
		for _, v := range all {
			if server.Vis(i).Has(v) {
				counts[v]++
			}
		}
	}
	for _, v := range all {
		if counts[v] == 0 {
			t.Errorf("no domains visible to channel %b", v)
		}
	}
	// NAS (dyndns) domains should be FDNS-dominated.
	nasFDNS, nasTotal := 0, 0
	for i, name := range refNames(world) {
		if strings.HasPrefix(name, "nas-") {
			nasTotal++
			if server.Vis(i).Has(VisFDNS) {
				nasFDNS++
			}
		}
	}
	if nasTotal > 20 && float64(nasFDNS)/float64(nasTotal) < 0.5 {
		t.Errorf("NAS FDNS share = %d/%d, want dominant", nasFDNS, nasTotal)
	}
}

func TestRTreeQueries(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8::2"),
		ip6.MustParseAddr("2001:dead:beef::5"),
	}
	tr := NewRTree(addrs)
	// Root is an empty non-terminal.
	if rc := tr.Query(nil); rc != NoErrorEmpty {
		t.Errorf("root rcode = %v", rc)
	}
	// The 2001: branch exists.
	if rc := tr.Query([]byte{2, 0, 0, 1}); rc != NoErrorEmpty {
		t.Errorf("2001 branch rcode = %v", rc)
	}
	// A dead branch is NXDOMAIN.
	if rc := tr.Query([]byte{3}); rc != NXDomain {
		t.Errorf("dead branch rcode = %v", rc)
	}
	// Full paths hit PTRs.
	full := addrs[0].Nybbles()
	if rc := tr.Query(full[:]); rc != HasPTR {
		t.Errorf("full path rcode = %v", rc)
	}
	// Full path without PTR is NXDOMAIN.
	other := ip6.MustParseAddr("2001:db8::3").Nybbles()
	if rc := tr.Query(other[:]); rc != NXDomain {
		t.Errorf("missing PTR rcode = %v", rc)
	}
	// Invalid digit.
	if rc := tr.Query([]byte{99}); rc != NXDomain {
		t.Errorf("invalid digit rcode = %v", rc)
	}
}

func TestRTreeWorldPopulation(t *testing.T) {
	tr := server.Reverse()
	// Every world rDNS address must be reachable.
	for i, a := range world.RDNSAddrs() {
		if i >= 50 {
			break
		}
		n := a.Nybbles()
		if rc := tr.Query(n[:]); rc != HasPTR {
			t.Fatalf("rDNS address %v not in tree", a)
		}
	}
}

func TestVisDeterministic(t *testing.T) {
	k := hash64.String("host1.as5.example.")
	if visFor(k, farm) != visFor(k, farm) {
		t.Error("visibility not deterministic")
	}
}

// fuzzAddrs decodes a fuzzed address set, four bytes per step: op picks
// a base (one of a few fixed addresses, or with op&0x80 the previous
// address, for prefixes shared to any depth), keep says how many leading
// nybbles of it survive, and v gives the pattern the rest repeat.
// op&0x40 emits the dense block of all 16 last-nybble siblings, op&0x20
// the address twice. No bytes is the empty set; past 64 steps the rest
// is ignored, which bounds a set at 1024 addresses.
func fuzzAddrs(data []byte) []ip6.Addr {
	bases := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::"),
		ip6.MustParseAddr("2001:db8:0:1::"),
		ip6.MustParseAddr("fe80::"),
		{},
		ip6.MaxAddr(),
	}
	var out []ip6.Addr
	for step := 0; step < 64 && len(data) >= 4; step, data = step+1, data[4:] {
		op, keep, v := data[0], int(data[1]%33), uint16(data[2])<<8|uint16(data[3])
		base := bases[int(op&0x1f)%len(bases)]
		if op&0x80 != 0 && len(out) > 0 {
			base = out[len(out)-1]
		}
		n := base.Nybbles()
		for i := keep; i < 32; i++ {
			n[i] = byte(v>>(4*(i%4))) & 0xf
		}
		a := ip6.AddrFromNybbles(n)
		switch {
		case op&0x40 != 0:
			for d := byte(0); d < 16; d++ {
				n[31] = d
				out = append(out, ip6.AddrFromNybbles(n))
			}
		case op&0x20 != 0:
			out = append(out, a, a)
		default:
			out = append(out, a)
		}
	}
	return out
}

// FuzzRTreeQuery holds the sorted column's Query to the pointer trie's
// over fuzzed address sets: the fuzzed path itself (raw bytes, so digits
// above 15 and paths beyond 32 nybbles), and for every member each of its
// 33 prefixes plus the sibling label beside each (full-length hits and
// one-nybble misses).
func FuzzRTreeQuery(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 32, 0, 1, 0x80, 30, 0, 2, 2, 4, 0xbe, 0xef}, []byte{2, 0, 0, 1})
	f.Add([]byte{0x40, 28, 0, 0, 0x20, 32, 0, 0, 4, 0, 0xff, 0xff}, []byte{15, 15, 15, 16})
	f.Add([]byte{3, 0, 0, 0, 4, 0, 0, 0}, make([]byte, 33))
	f.Fuzz(func(t *testing.T, set, path []byte) {
		addrs := fuzzAddrs(set)
		col, ref := NewRTree(addrs), newRefTrie(addrs)
		check := func(p []byte) {
			if got, want := col.Query(p), ref.Query(p); got != want {
				t.Fatalf("Query(%v) = %v, trie %v (set %v)", p, got, want, addrs)
			}
		}
		check(path)
		for _, a := range addrs {
			n := a.Nybbles()
			for k := 0; k <= 32; k++ {
				check(n[:k])
				if k > 0 {
					sib := append([]byte(nil), n[:k]...)
					sib[k-1] = (sib[k-1] + 1) & 0xf
					check(sib)
				}
			}
		}
	})
}
