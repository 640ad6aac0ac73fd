package netsim

import (
	"math/rand"
	"sync"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// testConfig returns a small world for fast tests.
func testConfig() Config {
	return Config{
		Seed:      42,
		Registry:  bgp.RegistryConfig{ASes: 250, PrefixesPerAS: 3.5, Seed: 7},
		Scale:     0.08,
		EpochDays: 7,
		Epochs:    6,
	}
}

var world = New(testConfig()) // shared across tests (read-only)

func TestDeterminism(t *testing.T) {
	a, b := New(testConfig()), New(testConfig())
	if a.hc.n() != b.hc.n() {
		t.Fatalf("host counts differ: %d vs %d", a.hc.n(), b.hc.n())
	}
	for i := int32(0); i < int32(a.hc.n()); i++ {
		if a.hc.hostAt(i) != b.hc.hostAt(i) {
			t.Fatalf("host %d differs", i)
		}
	}
	if ad, bd := a.Digest(), b.Digest(); ad != bd {
		t.Fatal("world digests differ")
	}
	if len(a.regions) != len(b.regions) {
		t.Fatal("region counts differ")
	}
	// Same probes give same answers, including fingerprints.
	rng := rand.New(rand.NewSource(1))
	hosts := a.Hosts(ClassWebServer)
	for i := 0; i < 50 && i < len(hosts); i++ {
		h := hosts[rng.Intn(len(hosts))]
		for _, p := range wire.Protos {
			ra := a.Probe(h.Addr, p, 3, 1000)
			rb := b.Probe(h.Addr, p, 3, 1000)
			if ra.OK != rb.OK || ra.HopLimit != rb.HopLimit {
				t.Fatalf("probe mismatch for %v %v", h.Addr, p)
			}
			if (ra.TCP == nil) != (rb.TCP == nil) {
				t.Fatalf("TCP info mismatch for %v %v", h.Addr, p)
			}
			if ra.TCP != nil && *ra.TCP != *rb.TCP {
				t.Fatalf("fingerprint mismatch for %v %v", h.Addr, p)
			}
		}
	}
}

func TestPopulationsExist(t *testing.T) {
	classes := []HostClass{ClassWebServer, ClassDNSServer, ClassRouter, ClassBitnode, ClassAtlas}
	for _, c := range classes {
		if n := len(world.Hosts(c)); n == 0 {
			t.Errorf("no hosts of class %v", c)
		}
	}
	if len(world.AliasedRegions()) == 0 {
		t.Error("no aliased regions")
	}
	if len(world.StaleRecords()) == 0 {
		t.Error("no stale records")
	}
	if len(world.AliasRecords()) == 0 {
		t.Error("no alias records")
	}
	if len(world.RDNSAddrs()) == 0 {
		t.Error("no rDNS addresses")
	}
	if len(world.LineHosts()) == 0 {
		t.Error("no line hosts")
	}
}

func TestWebServerResponds(t *testing.T) {
	ok := 0
	hosts := world.Hosts(ClassWebServer)
	for i, h := range hosts {
		if i >= 300 {
			break
		}
		if h.DeathDay == 0 {
			continue
		}
		// Probe every protocol it serves a few times to ride out loss.
		responded := false
		for attempt := 0; attempt < 3 && !responded; attempt++ {
			for _, p := range wire.Protos {
				if h.Serves.Has(p) && world.Probe(h.Addr, p, 0, wire.Time(attempt*1000)).OK {
					responded = true
					break
				}
			}
		}
		if responded {
			ok++
		}
	}
	if ok < 250 {
		t.Errorf("only %d/300 live web servers responded", ok)
	}
}

func TestHostDeath(t *testing.T) {
	for _, h := range world.Hosts() {
		if h.DeathDay < 2 {
			continue
		}
		day := int(h.DeathDay)
		for _, p := range wire.Protos {
			if world.Probe(h.Addr, p, day, 0).OK {
				t.Fatalf("host %v responded on death day %d", h.Addr, day)
			}
			if world.Probe(h.Addr, p, day+10, 0).OK {
				t.Fatalf("host %v responded after death", h.Addr)
			}
		}
		return // one is enough
	}
	t.Skip("no dying host in sample")
}

func TestAliasedRegionsRespond(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range world.AliasedRegions() {
		if r.Quirks&QuirkSYNProxy != 0 || r.Quirks&QuirkRateLimit != 0 || r.Loss > 0.05 {
			continue
		}
		hits := 0
		const n = 16
		for i := 0; i < n; i++ {
			a := r.Prefix.RandomAddr(rng)
			if !r.Hole.IsZero() && r.Hole.Contains(a) {
				continue
			}
			got := false
			for attempt := 0; attempt < 2 && !got; attempt++ {
				for _, p := range []wire.Proto{wire.ICMPv6, wire.TCP80} {
					if r.Serves.Has(p) && world.Probe(a, p, 1, wire.Time(i*100+attempt)).OK {
						got = true
						break
					}
				}
			}
			if got {
				hits++
			}
		}
		if hits < n-2 {
			t.Errorf("aliased region %v: only %d/%d random addresses responded", r.Prefix, hits, n)
		}
	}
}

func TestGroundTruthAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := world.AliasedRegions()[0]
	a := r.Prefix.RandomAddr(rng)
	if !r.Hole.IsZero() && r.Hole.Contains(a) {
		a = r.Prefix.Addr()
	}
	if !world.GroundTruthAliased(a) {
		t.Error("address in region not ground-truth aliased")
	}
	if world.GroundTruthAliased(ip6.MustParseAddr("fe80::1")) {
		t.Error("link-local aliased?")
	}
	// Holes are not aliased.
	for _, r := range world.AliasedRegions() {
		if r.Hole.IsZero() {
			continue
		}
		ha := r.Hole.RandomAddr(rng)
		if world.GroundTruthAliased(ha) {
			t.Errorf("hole %v of %v misreported as aliased", r.Hole, r.Prefix)
		}
	}
}

// TestRandomAddressesSilent is the property APD depends on: random
// addresses in non-aliased space almost never respond.
func TestRandomAddressesSilent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	anns := world.Table.Announcements()
	probes, hits := 0, 0
	for i := 0; i < 3000; i++ {
		ann := anns[rng.Intn(len(anns))]
		a := ann.Prefix.RandomAddr(rng)
		if world.GroundTruthAliased(a) {
			continue
		}
		probes++
		if world.Probe(a, wire.ICMPv6, 2, wire.Time(i)).OK ||
			world.Probe(a, wire.TCP80, 2, wire.Time(i)).OK {
			hits++
		}
	}
	if probes == 0 {
		t.Fatal("no non-aliased probes drawn")
	}
	if rate := float64(hits) / float64(probes); rate > 0.005 {
		t.Errorf("random-address response rate %.4f, want ~0", rate)
	}
}

func TestLinePoolRoundTrip(t *testing.T) {
	var pool *lineISP
	for i := range world.isps {
		if world.isps[i].rotate > 0 {
			pool = &world.isps[i]
			break
		}
	}
	if pool == nil {
		t.Fatal("no rotating pool")
	}
	for day := 0; day < 10; day += 3 {
		for line := uint64(0); line < 20 && line < uint64(pool.lines); line++ {
			cpe := pool.cpeAddr(line, day)
			gotLine, kind, ok := pool.lineAt(cpe, day)
			if !ok || kind != lineCPE || gotLine != line {
				t.Fatalf("day %d line %d: lineAt(cpe) = %d,%v,%v", day, line, gotLine, kind, ok)
			}
			if ca, has := pool.clientAddr(line, day); has {
				gotLine, kind, ok = pool.lineAt(ca, day)
				if !ok || kind != lineClient || gotLine != line {
					t.Fatalf("client round trip failed: %v %v %v", gotLine, kind, ok)
				}
			}
		}
	}
}

func TestLineRotation(t *testing.T) {
	var pool *lineISP
	for i := range world.isps {
		if world.isps[i].rotate > 0 {
			pool = &world.isps[i]
			break
		}
	}
	if pool == nil {
		t.Fatal("no rotating pool")
	}
	day0 := 0
	day1 := pool.rotate // next epoch
	a0 := pool.cpeAddr(0, day0)
	a1 := pool.cpeAddr(0, day1)
	if a0 == a1 {
		t.Fatal("CPE address did not rotate")
	}
	// IID (the MAC-derived part) must be stable across rotation.
	if a0.Lo() != a1.Lo() {
		t.Error("CPE IID changed across rotation; MAC should be stable")
	}
	// Yesterday's address must be dead today.
	if _, _, ok := pool.lineAt(a0, day1); ok {
		t.Error("stale CPE address still resolves after rotation")
	}
	// SLAAC.
	if !a0.IsSLAAC() {
		t.Error("CPE address not SLAAC")
	}
	if _, ok := a0.MAC(); !ok {
		t.Fatal("no MAC recoverable")
	}
}

func TestCPERespondsOnlyWhileCurrent(t *testing.T) {
	var nw *network
	for i := range world.nets {
		n := &world.nets[i]
		if n.isp >= 0 && world.isps[n.isp].rotate > 0 {
			nw = n
			break
		}
	}
	if nw == nil {
		t.Fatal("no rotating pool")
	}
	pool := &world.isps[nw.isp]
	line := uint64(1)
	day := 0
	cpe := pool.cpeAddr(line, day)
	hits := 0
	for a := 0; a < 5; a++ {
		if world.Probe(cpe, wire.ICMPv6, day, wire.Time(a)).OK {
			hits++
		}
	}
	if hits == 0 {
		t.Error("current CPE never responds to ICMP")
	}
	later := day + pool.rotate*3
	if world.Probe(cpe, wire.ICMPv6, later, 0).OK {
		if pool.cpeAddr(line, later) == cpe {
			t.Skip("slot coincidentally same")
		}
		t.Error("stale CPE address still responds after renumbering")
	}
}

// vendorName returns the CPE vendor a MAC address's OUI names.
func vendorName(mac [6]byte) string {
	oui := [3]byte{mac[0], mac[1], mac[2]}
	for _, v := range vendorOUIs[:3] {
		if v.oui == oui {
			return v.name
		}
	}
	return "other"
}

func TestVendorMix(t *testing.T) {
	var pool *lineISP
	for i := range world.isps {
		if world.isps[i].lines > 300 {
			pool = &world.isps[i]
			break
		}
	}
	if pool == nil {
		t.Skip("no large pool at this scale")
	}
	counts := map[string]int{}
	for i := 0; i < pool.lines; i++ {
		counts[vendorName(pool.mac(uint64(i)))]++
	}
	total := float64(pool.lines)
	if z := float64(counts["ZTE"]) / total; z < 0.35 || z > 0.6 {
		t.Errorf("ZTE share %.2f, want ~0.48", z)
	}
	if a := float64(counts["AVM"]) / total; a < 0.35 || a > 0.6 {
		t.Errorf("AVM share %.2f, want ~0.48", a)
	}
}

func TestTraceroutePath(t *testing.T) {
	// Pick a NAS-behind-CPE line: its traceroute crosses the CPE. (For
	// dyndns-on-router lines the CPE is the destination itself.)
	var lh LineHost
	found := false
	for _, cand := range world.LineHosts() {
		if cand.isp.nasLine(cand.Line) {
			lh, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no NAS line in world")
	}
	dst := lh.Addr(0)
	path := world.TraceroutePath(dst, 0)
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	// The path towards a line-hosted NAS must include the line's CPE
	// (an SLAAC address).
	foundSLAAC := false
	for _, hop := range path {
		if hop.Addr.IsSLAAC() {
			foundSLAAC = true
		}
		if hop.Addr == dst {
			t.Error("path contains destination")
		}
	}
	if !foundSLAAC {
		t.Error("no CPE (SLAAC) hop on path to subscriber target")
	}
}

func TestSchemesAllPresent(t *testing.T) {
	seen := map[Scheme]int{}
	for _, nw := range world.Networks() {
		seen[nw.Scheme]++
	}
	for s := Scheme(0); s < NumSchemes; s++ {
		if seen[s] == 0 {
			t.Errorf("scheme %v absent from world", s)
		}
	}
	// Counter must dominate, mirroring cluster popularity.
	if seen[SchemeCounter] <= seen[SchemeEUI64Multi] {
		t.Error("scheme popularity order wrong")
	}
}

func TestMachineFingerprints(t *testing.T) {
	m1, m2 := newMachine(1), newMachine(1)
	if m1 != m2 {
		t.Fatal("machine derivation not deterministic")
	}
	// Monotonic timestamps advance with time.
	m := machine{iTTL: 64, layout: 0, tsMode: tsMonotonic, tsHz: 1000, tsBase: 10} // "MSS-SACK-TS-N-WS"
	a, b := m.tsVal(1, 0, 1_000_000), m.tsVal(1, 0, 2_000_000)
	if !m.fingerprint().TSPresent || b <= a {
		t.Errorf("monotonic TS did not advance: %d -> %d", a, b)
	}
	// Per-tuple: different destinations have different bases.
	m.tsMode = tsPerTuple
	if m.tsVal(111, 0, 1000) == m.tsVal(222, 0, 1000) {
		t.Error("per-tuple TS identical across destinations")
	}
	// No-TS layout never reports timestamps.
	m.layout = 4 // "MSS"
	if m.fingerprint().TSPresent || m.tsVal(1, 0, 1000) != 0 {
		t.Error("TS present without TS option")
	}
}

func TestClientOnlineWindows(t *testing.T) {
	// Over many client-days, mean online fraction should be well below 1
	// and above 0 (uptime windows of ~30min..24h).
	online, total := 0, 0
	for key := uint64(0); key < 300; key++ {
		for day := 0; day < 5; day++ {
			for _, at := range []wire.Time{0, 21_600_000_000, 43_200_000_000, 64_800_000_000} {
				total++
				if clientOnline(key, day, at) {
					online++
				}
			}
		}
	}
	frac := float64(online) / float64(total)
	if frac < 0.1 || frac > 0.7 {
		t.Errorf("client online fraction %.2f implausible", frac)
	}
}

func TestSYNProxyBehaviour(t *testing.T) {
	var proxy *AliasRegion
	for _, r := range world.AliasedRegions() {
		if r.Quirks&QuirkSYNProxy != 0 {
			proxy = r
			break
		}
	}
	if proxy == nil {
		t.Fatal("no SYN proxy region")
	}
	rng := rand.New(rand.NewSource(9))
	// ICMP never answers; TCP answers some branches.
	tcpHits := 0
	for i := 0; i < 64; i++ {
		a := proxy.Prefix.RandomAddr(rng)
		if world.Probe(a, wire.ICMPv6, 1, 0).OK {
			t.Fatal("SYN proxy answered ICMP")
		}
		if world.Probe(a, wire.TCP80, 1, 0).OK {
			tcpHits++
		}
	}
	if tcpHits == 0 || tcpHits == 64 {
		t.Errorf("SYN proxy TCP hits = %d/64, want partial", tcpHits)
	}
}

func TestHoleAnsweredDifferently(t *testing.T) {
	var withHole *AliasRegion
	for _, r := range world.AliasedRegions() {
		// The DE-CIX-style case: hole answered by other infrastructure
		// (the SYN-proxy hole responds by design, so skip /80 holes).
		if !r.Hole.IsZero() && r.Hole.Bits() == 120 {
			withHole = r
			break
		}
	}
	if withHole == nil {
		t.Fatal("no hole region")
	}
	rng := rand.New(rand.NewSource(10))
	// Hole addresses don't respond via the region.
	hits := 0
	for i := 0; i < 20; i++ {
		a := withHole.Hole.RandomAddr(rng)
		if world.Probe(a, wire.TCP80, 1, 0).OK {
			hits++
		}
	}
	if hits > 0 {
		t.Errorf("hole responded %d/20 times", hits)
	}
}

func TestAmazonAliasShare(t *testing.T) {
	amazon := bgp.FindASN("Amazon")
	n48, aliased := 0, 0
	for _, p := range world.Table.PrefixesOf(amazon) {
		if p.Bits() == 48 {
			n48++
		}
	}
	for _, r := range world.AliasedRegions() {
		if r.ASN == amazon && r.Prefix.Bits() == 48 {
			aliased++
		}
	}
	if n48 != 189 {
		t.Fatalf("Amazon /48s = %d", n48)
	}
	if aliased < 150 || aliased > 189 {
		t.Errorf("Amazon aliased /48s = %d, want ~170", aliased)
	}
}

func TestClientSnapshots(t *testing.T) {
	snaps := world.ClientSnapshots(0, 200)
	if len(snaps) == 0 {
		t.Fatal("no client snapshots")
	}
	for _, s := range snaps[:min(20, len(snaps))] {
		if s.Addr.IsZero() || s.Country == "" {
			t.Errorf("bad snapshot %+v", s)
		}
		// Client addresses use privacy IIDs: high hamming weight, no ff:fe.
		if s.Addr.IsSLAAC() {
			t.Errorf("client %v has SLAAC address", s.Addr)
		}
	}
}

func TestLineHostRotatingAddrChanges(t *testing.T) {
	for _, lh := range world.LineHosts() {
		if !lh.Rotates() {
			continue
		}
		if lh.Addr(0) == lh.Addr(50) {
			t.Error("rotating line host address did not change over 50 days")
		}
		return
	}
	t.Skip("no rotating line hosts")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkProbe(b *testing.B) {
	hosts := world.Hosts(ClassWebServer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hosts[i%len(hosts)]
		world.Probe(h.Addr, wire.TCP80, 0, wire.Time(i))
	}
}

func BenchmarkProbeMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	anns := world.Table.Announcements()
	addrs := make([]ip6.Addr, 1024)
	for i := range addrs {
		addrs[i] = anns[rng.Intn(len(anns))].Prefix.RandomAddr(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world.Probe(addrs[i%len(addrs)], wire.ICMPv6, 0, wire.Time(i))
	}
}

// TestProbeConcurrencyContract exercises the contract documented on
// Internet.Probe: concurrent probes from many goroutines — the very first
// probes a freshly built world answers, duplicates included — must return
// exactly what a serial run returns. Probe writes no shared state, so
// under -race this is also the proof that nothing is derived lazily.
func TestProbeConcurrencyContract(t *testing.T) {
	in := New(testConfig())
	rng := rand.New(rand.NewSource(99))
	type task struct {
		addr ip6.Addr
		p    wire.Proto
		day  int
		at   wire.Time
	}
	var tasks []task
	for _, h := range in.Hosts() {
		if len(tasks) >= 2000 {
			break
		}
		tasks = append(tasks, task{h.Addr, wire.Protos[len(tasks)%int(wire.NumProtos)], len(tasks) % 9, wire.Time(rng.Intn(1 << 20))})
	}
	for _, r := range in.AliasedRegions() {
		tasks = append(tasks, task{r.Prefix.RandomAddr(rng), wire.TCP80, 3, 17})
	}
	for i, lh := range in.LineHosts() {
		if i < 500 {
			tasks = append(tasks, task{lh.Addr(i % 9), wire.Protos[i%2], i % 9, wire.Time(i)})
		}
	}
	// Duplicate everything so distinct goroutines probe identical targets.
	tasks = append(tasks, tasks...)

	byWorkers := map[int][]wire.Response{}
	for _, workers := range []int{16, 4} {
		conc := make([]wire.Response, len(tasks))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(tasks); i += workers {
					tk := tasks[i]
					conc[i] = in.Probe(tk.addr, tk.p, tk.day, tk.at)
				}
			}(w)
		}
		wg.Wait()
		byWorkers[workers] = conc
	}
	for i, tk := range tasks {
		serial := in.Probe(tk.addr, tk.p, tk.day, tk.at)
		for _, workers := range []int{16, 4} {
			conc := byWorkers[workers][i]
			if serial.OK != conc.OK || serial.HopLimit != conc.HopLimit {
				t.Fatalf("workers=%d: probe %d differs from serial run", workers, i)
			}
			st, ct := serial.TCP, conc.TCP
			if (st == nil) != (ct == nil) {
				t.Fatalf("workers=%d: probe %d TCP presence differs", workers, i)
			}
			if st != nil && *st != *ct {
				t.Fatalf("workers=%d: probe %d fingerprint differs: %+v vs %+v", workers, i, *st, *ct)
			}
		}
	}
}
