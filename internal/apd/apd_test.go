package apd

import (
	"math/rand"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/probe"
	"expanse/internal/wire"
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

func TestFanOutTable3(t *testing.T) {
	// The paper's Table 3 example: /64 fans out into /68 subprefixes
	// 2001:db8:407:8000:[0-f]…
	p := ip6.MustParsePrefix("2001:db8:407:8000::/64")
	fo := FanOut(p)
	seen := map[byte]bool{}
	for i, a := range fo {
		if !p.Contains(a) {
			t.Fatalf("target %d outside prefix: %v", i, a)
		}
		nyb := a.Nybble(16) // first nybble below /64
		if nyb != byte(i) {
			t.Errorf("target %d in branch %x, want %x", i, nyb, i)
		}
		seen[nyb] = true
	}
	if len(seen) != 16 {
		t.Errorf("only %d distinct branches", len(seen))
	}
	// Deterministic across calls (required for the sliding window).
	fo2 := FanOut(p)
	if fo != fo2 {
		t.Error("FanOut not deterministic")
	}
}

func TestFanOutNonAlignedPrefix(t *testing.T) {
	// BGP prefixes are probed as announced, including non-nybble-aligned
	// lengths like /29.
	p := ip6.MustParsePrefix("2a00::/29")
	fo := FanOut(p)
	branches := map[ip6.Prefix]bool{}
	for _, a := range fo {
		if !p.Contains(a) {
			t.Fatalf("target outside /29: %v", a)
		}
		branches[ip6.PrefixFrom(a, 33)] = true
	}
	if len(branches) != 16 {
		t.Errorf("%d distinct /33 branches, want 16", len(branches))
	}
	// /128 candidates degenerate gracefully.
	host := ip6.MustParsePrefix("2001:db8::1/128")
	for _, a := range FanOut(host) {
		if a != host.Addr() {
			t.Errorf("host-prefix fan-out produced %v", a)
		}
	}
}

func TestHitlistCandidates(t *testing.T) {
	var addrs []ip6.Addr
	// 150 addresses in one /64 (dense) and 5 in another (sparse).
	dense := ip6.MustParsePrefix("2001:db8:1:2::/64")
	sparse := ip6.MustParsePrefix("2001:db8:9:9::/64")
	for i := uint64(0); i < 150; i++ {
		addrs = append(addrs, dense.NthAddr(i))
	}
	for i := uint64(0); i < 5; i++ {
		addrs = append(addrs, sparse.NthAddr(i<<32))
	}
	set := ip6.NewShardSetWorkers(len(addrs), 0)
	set.AddSlice(addrs)
	cands := HitlistCandidates(set, 100)
	byPrefix := map[ip6.Prefix]int{}
	for _, c := range cands {
		byPrefix[c.Prefix] = c.Targets
	}
	// Both /64s present (exempt from the threshold).
	if byPrefix[dense] != 150 {
		t.Errorf("dense /64 targets = %d", byPrefix[dense])
	}
	if byPrefix[sparse] != 5 {
		t.Errorf("sparse /64 targets = %d", byPrefix[sparse])
	}
	// The dense counter block concentrates in one /68, /72 … /124 chain;
	// levels with > 100 targets must appear.
	if _, ok := byPrefix[ip6.PrefixFrom(dense.Addr(), 120)]; !ok {
		t.Error("dense /120 level missing")
	}
	// No candidate below the sparse /64 (threshold).
	for p := range byPrefix {
		if p.Bits() > 64 && sparse.ContainsPrefix(p) {
			t.Errorf("sparse sub-candidate %v should not exist", p)
		}
	}
}

func TestDetectAliasedRegion(t *testing.T) {
	// Pick a clean aliased /48 region from the world and a server /64,
	// then verify classification.
	var region ip6.Prefix
	for _, r := range world.AliasedRegions() {
		if r.Prefix.Bits() == 48 && r.Quirks == 0 && r.Loss < 0.02 {
			region = r.Prefix
			break
		}
	}
	if region.IsZero() {
		t.Fatal("no clean aliased /48 in world")
	}
	var server64 ip6.Prefix
	for _, h := range world.Hosts(netsim.ClassWebServer) {
		if !world.GroundTruthAliased(h.Addr) {
			server64 = ip6.PrefixFrom(h.Addr, 64)
			break
		}
	}
	if server64.IsZero() {
		t.Fatal("no non-aliased server")
	}

	det := NewDetectorWorkers(world, 0)
	masks := det.ProbeDay([]Candidate{{Prefix: region}, {Prefix: server64}}, 1)
	if m := masks[region]; m != AllBranches {
		t.Errorf("aliased region mask = %016b (%d branches)", m, m.Count())
	}
	if m := masks[server64]; m == AllBranches {
		t.Errorf("server /64 classified aliased")
	}
	if det.ProbesSent != 2*2*Branches {
		t.Errorf("probes sent = %d, want %d", det.ProbesSent, 2*2*Branches)
	}
}

func TestCrossProtocolMergingHelps(t *testing.T) {
	// An ICMP-rate-limited aliased region answers TCP more reliably;
	// merged detection should classify it aliased more often than
	// ICMP-only detection over several days.
	var region ip6.Prefix
	for _, r := range world.AliasedRegions() {
		if r.Quirks&netsim.QuirkRateLimit != 0 {
			region = r.Prefix
			break
		}
	}
	if region.IsZero() {
		t.Fatal("no rate-limited region")
	}
	cands := []Candidate{{Prefix: region}}
	merged := NewDetectorWorkers(world, 0) // ICMP + TCP80
	icmpOnly := NewDetectorWorkers(world, 0, wire.ICMPv6)
	mergedHits, icmpHits := 0, 0
	for day := 0; day < 8; day++ {
		if merged.ProbeDay(cands, day)[region] == AllBranches {
			mergedHits++
		}
		if icmpOnly.ProbeDay(cands, day)[region] == AllBranches {
			icmpHits++
		}
	}
	if mergedHits < icmpHits {
		t.Errorf("merging hurt: merged %d vs icmp %d", mergedHits, icmpHits)
	}
}

func TestSlidingWindowReducesInstability(t *testing.T) {
	// Probe high-loss aliased regions daily; larger windows must yield
	// (weakly) fewer unstable prefixes — the shape of Table 4.
	var cands []Candidate
	for _, r := range world.AliasedRegions() {
		cands = append(cands, Candidate{Prefix: r.Prefix})
	}
	det := NewDetectorWorkers(world, 0)
	var hist History
	for day := 0; day < 10; day++ {
		hist.Add(det.ProbeDay(cands, day))
	}
	prev := -1
	for w := 0; w <= 5; w++ {
		u := hist.UnstablePrefixes(w)
		if prev >= 0 && u > prev+2 { // weak monotonicity with small slack
			t.Errorf("window %d: unstable %d > window %d: %d", w, u, w-1, prev)
		}
		prev = u
	}
	if hist.UnstablePrefixes(0) <= hist.UnstablePrefixes(3) {
		// The whole point: window 3 strictly better than none, unless
		// the world is perfectly stable already.
		if hist.UnstablePrefixes(0) != 0 {
			t.Errorf("window 3 (%d) not better than window 0 (%d)",
				hist.UnstablePrefixes(3), hist.UnstablePrefixes(0))
		}
	}
}

func TestHistoryMerging(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8::/64")
	var h History
	h.Add(map[ip6.Prefix]BranchMask{p: 0x00ff})
	h.Add(map[ip6.Prefix]BranchMask{p: 0xff00})
	h.Add(map[ip6.Prefix]BranchMask{p: 0x0001})
	if m := h.MergedAt(p, 2, 1); m != 0x0001 {
		t.Errorf("window 1 mask = %04x", m)
	}
	if m := h.MergedAt(p, 2, 2); m != 0xff01 {
		t.Errorf("window 2 mask = %04x", m)
	}
	if m := h.MergedAt(p, 2, 3); m != AllBranches {
		t.Errorf("window 3 mask = %04x", m)
	}
	// Window < 1 clamps to the single-day window.
	if m := h.MergedAt(p, 2, 0); m != 0x0001 {
		t.Errorf("window 0 mask = %04x", m)
	}
	al := h.AliasedAt(2, 3)
	if !al[p] {
		t.Error("prefix should be aliased with window 3")
	}
	if len(h.AliasedAt(2, 1)) != 0 {
		t.Error("window 1 should not alias")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
}

// TestWindowLengthRegression pins the sliding-window semantics: a window
// of w merges exactly w days, no more. The original implementation merged
// w+1 days (di-w .. di inclusive), so the paper's 3-day window (§5.2)
// silently evaluated a 4-day merge.
func TestWindowLengthRegression(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8::/64")
	var h History
	// Day i contributes only bit i: the merged mask's popcount IS the
	// number of days merged.
	const days = 10
	for i := 0; i < days; i++ {
		h.Add(map[ip6.Prefix]BranchMask{p: 1 << i})
	}
	for w := 1; w <= 5; w++ {
		if got := h.MergedAt(p, days-1, w).Count(); got != w {
			t.Errorf("window %d merged %d days, want exactly %d", w, got, w)
		}
	}
	// Near the start of history the window truncates, never extends.
	if got := h.MergedAt(p, 1, 3).Count(); got != 2 {
		t.Errorf("day 1, window 3 merged %d days, want 2", got)
	}
	if got := h.MergedAt(p, 0, 3).Count(); got != 1 {
		t.Errorf("day 0, window 3 merged %d days, want 1", got)
	}
}

func TestFilterLPMSemantics(t *testing.T) {
	// Aliased /96 with a non-aliased /100 inside: addresses in the /100
	// are rescued (§5.1's case 3 handling).
	p96 := ip6.MustParsePrefix("2001:db8:1::/96")
	p100 := ip6.MustParsePrefix("2001:db8:1::/100")
	f := NewFilter(verdictsOf(map[ip6.Prefix]bool{p96: true, p100: false}))
	inside100 := ip6.MustParseAddr("2001:db8:1::123")
	outside100 := ip6.MustParseAddr("2001:db8:1::f000:1")
	if f.IsAliased(inside100) {
		t.Error("address in non-aliased /100 not rescued")
	}
	if !f.IsAliased(outside100) {
		t.Error("address in aliased /96 not filtered")
	}
	if f.IsAliased(ip6.MustParseAddr("2001:db9::1")) {
		t.Error("uncovered address filtered")
	}
	clean, aliased := f.Split([]ip6.Addr{inside100, outside100})
	if len(clean) != 1 || len(aliased) != 1 {
		t.Errorf("Split: %d clean, %d aliased", len(clean), len(aliased))
	}
	if got := f.AliasedPrefixes(); len(got) != 1 || got[0] != p96 {
		t.Errorf("AliasedPrefixes = %v", got)
	}
}

func TestCaseCounts(t *testing.T) {
	verdicts := map[ip6.Prefix]bool{
		ip6.MustParsePrefix("2001:db8::/64"):     true,
		ip6.MustParsePrefix("2001:db8::/68"):     true, // case 1
		ip6.MustParsePrefix("2001:db8:0:1::/64"): false,
		ip6.MustParsePrefix("2001:db8:0:1::/68"): false, // case 2
		ip6.MustParsePrefix("2001:db8:0:2::/64"): false,
		ip6.MustParsePrefix("2001:db8:0:2::/68"): true, // case 3
		ip6.MustParsePrefix("2001:db8:0:3::/64"): true,
		ip6.MustParsePrefix("2001:db8:0:3::/68"): false, // case 4 (anomaly)
	}
	counts := CaseCounts(verdictsOf(verdicts))
	if counts[CaseBothAliased] != 1 || counts[CaseBothNonAliased] != 1 ||
		counts[CaseMoreAliasedLessNot] != 1 || counts[CaseMoreNotLessAliased] != 1 {
		t.Errorf("case counts = %v", counts)
	}
}

func TestMurdockBaseline(t *testing.T) {
	// Murdock detects /96s inside big aliased regions but misses
	// aliasing confined below /96 (e.g. an aliased /112).
	var big, small ip6.Prefix
	for _, r := range world.AliasedRegions() {
		if r.Prefix.Bits() == 48 && r.Quirks == 0 && r.Loss < 0.02 && big.IsZero() {
			big = r.Prefix
		}
		if r.Prefix.Bits() == 112 && r.Quirks == 0 && small.IsZero() {
			small = r.Prefix
		}
	}
	if big.IsZero() || small.IsZero() {
		t.Fatal("world lacks required regions")
	}
	rng := rand.New(rand.NewSource(3))
	// Hitlist addresses: a few inside the big region, and enough inside
	// the /112 that deep multi-level candidates exist (>100 targets).
	var addrs []ip6.Addr
	for i := 0; i < 5; i++ {
		addrs = append(addrs, big.RandomAddr(rng))
	}
	smallAddrs := make([]ip6.Addr, 0, 120)
	for i := 0; i < 120; i++ {
		smallAddrs = append(smallAddrs, small.RandomAddr(rng))
	}
	addrs = append(addrs, smallAddrs...)
	md := NewMurdockDetector(world)
	sortAddrs(addrs)
	cands := md.Candidates(addrs)
	f := NewFilter(md.Detect(cands, 1))
	bigDetected, smallDetected := 0, 0
	for _, a := range addrs {
		if big.Contains(a) && f.IsAliased(a) {
			bigDetected++
		}
		if small.Contains(a) && f.IsAliased(a) {
			smallDetected++
		}
	}
	if bigDetected < 4 {
		t.Errorf("Murdock missed big-region addresses: %d/5", bigDetected)
	}
	if smallDetected > len(smallAddrs)/10 {
		t.Errorf("Murdock should miss sub-/96 aliasing, detected %d/%d", smallDetected, len(smallAddrs))
	}
	if md.ProbesSent == 0 {
		t.Error("probe accounting broken")
	}
	// Multi-level APD catches the /112 via hitlist candidates.
	det := NewDetectorWorkers(world, 0)
	hlCands := HitlistCandidatesAddrs(addrs, 100)
	masks := det.ProbeDay(hlCands, 1)
	found := false
	for p, m := range masks {
		if small.ContainsPrefix(p) && m == AllBranches {
			found = true
		}
	}
	if !found {
		t.Error("multi-level APD missed the aliased /112 region")
	}
}

// murdockPerProbe is the retired per-probe form of MurdockDetector.Detect
// — one netsim Probe call per packet, send times from each target's
// position in the scan order — kept as the oracle of the columnar Detect.
func murdockPerProbe(r *netsim.Internet, prefixes []ip6.Prefix, day int) (aliased map[ip6.Prefix]bool, probesSent int) {
	targets := murdockTargets(prefixes)
	// The detector's scanner: seed 0x96, default 100 kpps (10 μs apart).
	inv := probe.InversePermutation(nil, len(targets), 0x96^uint64(wire.TCP80)<<32^uint64(day))
	answered := make([]bool, len(targets))
	for attempt := 0; attempt < 3; attempt++ {
		for idx, dst := range targets {
			if r.Probe(dst, wire.TCP80, day, wire.Time(inv[idx])*10).OK {
				answered[idx] = true
			}
			probesSent++
		}
	}
	aliased = map[ip6.Prefix]bool{}
	for pi, p := range prefixes {
		if answered[pi*3] && answered[pi*3+1] && answered[pi*3+2] {
			aliased[p] = true
		}
	}
	return aliased, probesSent
}

// TestMurdockMatchesPerProbe pins the columnar Detect against the
// per-probe oracle on the world of core.TestConfig, over the /96s of a
// hitlist-shaped address set (hosts, aliased and stale records): same
// verdict set, same probe budget.
func TestMurdockMatchesPerProbe(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Scale = 0.08
	cfg.Registry.ASes = 250
	w := netsim.New(cfg)
	var addrs []ip6.Addr
	for _, h := range w.Hosts() {
		addrs = append(addrs, h.Addr)
	}
	for _, rec := range w.AliasRecords() {
		addrs = append(addrs, rec.Addr)
	}
	for _, rec := range w.StaleRecords() {
		addrs = append(addrs, rec.Addr)
	}
	md := NewMurdockDetector(w)
	sortAddrs(addrs)
	cands := md.Candidates(addrs)
	day := w.Horizon()
	got := md.Detect(cands, day)
	want, wantSent := murdockPerProbe(w, cands, day)
	if len(want) == 0 || len(want) == len(cands) {
		t.Fatalf("oracle classifies %d of %d /96s aliased; test is vacuous", len(want), len(cands))
	}
	if md.ProbesSent != wantSent || wantSent != 9*len(cands) {
		t.Errorf("ProbesSent = %d, per-probe oracle sent %d (9 per /96 = %d)", md.ProbesSent, wantSent, 9*len(cands))
	}
	if len(got.Prefixes) != len(cands) || len(got.Aliased) != len(cands) {
		t.Fatalf("Detect: %d prefixes / %d verdicts for %d candidates", len(got.Prefixes), len(got.Aliased), len(cands))
	}
	for i, p := range got.Prefixes {
		if p != cands[i] || got.Aliased[i] != want[p] {
			t.Errorf("Detect[%d] = (%v, %v), candidate %v aliased per the oracle: %v", i, p, got.Aliased[i], cands[i], want[p])
		}
	}
}

// TestHitlistCandidatesSetMatchesSlice pins that bucketing directly over
// ShardSet shards yields exactly the candidates of the slice-chunked
// path, for a hitlist with dense and sparse regions.
func TestHitlistCandidatesSetMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var addrs []ip6.Addr
	for _, r := range world.AliasedRegions() {
		for i := 0; i < 40; i++ {
			addrs = append(addrs, r.Prefix.RandomAddr(rng))
		}
	}
	dense := ip6.MustParsePrefix("2001:db8:77::/64")
	for i := uint64(0); i < 300; i++ {
		addrs = append(addrs, dense.NthAddr(i))
	}
	set := ip6.NewShardSetWorkers(len(addrs), 0)
	set.AddSlice(addrs)
	// The slice path must dedup like the set does to compare counts.
	fromSlice := HitlistCandidatesAddrs(set.Sorted(), 100)
	fromSet := HitlistCandidates(set, 100)
	if len(fromSet) != len(fromSlice) {
		t.Fatalf("set path %d candidates, slice path %d", len(fromSet), len(fromSlice))
	}
	for i := range fromSet {
		if fromSet[i] != fromSlice[i] {
			t.Errorf("candidate %d differs: %+v vs %+v", i, fromSet[i], fromSlice[i])
		}
	}
}

func TestBGPCandidates(t *testing.T) {
	cands := BGPCandidates(world.Table)
	if len(cands) != world.Table.NumPrefixes() {
		t.Errorf("candidates = %d, want %d", len(cands), world.Table.NumPrefixes())
	}
}

// TestFanOutSeedCollision pins the seed-derivation fix: two distinct
// prefixes of the same length whose Hi^Lo folds are equal must still fan
// out to different targets (the old seed was int64(Hi^Lo)^bits<<56, so
// such pairs probed identical pseudo-random addresses).
func TestFanOutSeedCollision(t *testing.T) {
	hi := ip6.MustParseAddr("2001:db8::").Hi()
	const lo1, d = uint64(5) << 32, uint64(1) << 40
	p1 := ip6.PrefixFrom(ip6.AddrFromUint64(hi, lo1), 96)
	p2 := ip6.PrefixFrom(ip6.AddrFromUint64(hi^d, lo1^d), 96)
	if p1 == p2 {
		t.Fatal("test prefixes not distinct")
	}
	if p1.Addr().Hi()^p1.Addr().Lo() != p2.Addr().Hi()^p2.Addr().Lo() {
		t.Fatal("test prefixes do not collide under Hi^Lo")
	}
	fo1, fo2 := FanOut(p1), FanOut(p2)
	same := 0
	for i := range fo1 {
		// Compare the within-branch random suffixes (the branch nybbles
		// and prefix bits differ by construction).
		if fo1[i].Lo()&0xffffffff == fo2[i].Lo()&0xffffffff {
			same++
		}
	}
	if same == len(fo1) {
		t.Error("colliding prefixes produced identical fan-out suffixes")
	}
}

// TestDetectorWorkers pins the worker plumbing and the engine contract at
// the detector level: ProbeDay results are identical for any worker count.
func TestDetectorWorkers(t *testing.T) {
	if NewDetectorWorkers(world, 3).Workers() != 3 {
		t.Error("explicit worker count not plumbed through")
	}
	if NewDetectorWorkers(world, 0).Workers() != 8 {
		t.Error("default worker count changed")
	}
	var cands []Candidate
	for _, r := range world.AliasedRegions() {
		cands = append(cands, Candidate{Prefix: r.Prefix})
	}
	ref := NewDetectorWorkers(world, 1).ProbeDay(cands, 2)
	for _, workers := range []int{4, 16} {
		got := NewDetectorWorkers(world, workers).ProbeDay(cands, 2)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d masks, want %d", workers, len(got), len(ref))
		}
		for p, m := range ref {
			if got[p] != m {
				t.Errorf("workers=%d: mask for %v = %016b, want %016b", workers, p, got[p], m)
			}
		}
	}
}

func TestBranchMaskCount(t *testing.T) {
	if AllBranches.Count() != 16 {
		t.Error("AllBranches count")
	}
	if BranchMask(0).Count() != 0 || BranchMask(0b101).Count() != 2 {
		t.Error("Count wrong")
	}
}

func BenchmarkProbeDay(b *testing.B) {
	var cands []Candidate
	for _, r := range world.AliasedRegions() {
		cands = append(cands, Candidate{Prefix: r.Prefix})
	}
	det := NewDetectorWorkers(world, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ProbeDay(cands, i)
	}
}
