package apd

// Property tests pinning the columnar alias plane against the retired
// map/trie implementations (legacy_ref_test.go) on random inputs, plus
// the regression tests the rewrite carries.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"expanse/internal/ip6"
)

// randomHitlist builds an address slice with APD-shaped structure: dense
// counter blocks (deep candidate chains), medium spreads at several
// levels, sparse randoms, and duplicates.
func randomHitlist(rng *rand.Rand, blocks int) []ip6.Addr {
	var addrs []ip6.Addr
	for b := 0; b < blocks; b++ {
		base := ip6.PrefixFrom(ip6.AddrFromUint64(0x2001<<48|rng.Uint64()&0xffff_ffff<<16, 0), 64)
		switch rng.Intn(4) {
		case 0: // dense counter block: one deep chain above threshold
			n := 100 + rng.Intn(300)
			for i := 0; i < n; i++ {
				addrs = append(addrs, base.NthAddr(uint64(i)))
			}
		case 1: // spread across a middle level
			n := 50 + rng.Intn(200)
			for i := 0; i < n; i++ {
				addrs = append(addrs, base.NthAddr(uint64(rng.Intn(1<<24))))
			}
		case 2: // sparse
			for i := 0; i < 1+rng.Intn(20); i++ {
				addrs = append(addrs, base.RandomAddr(rng))
			}
		case 3: // duplicates of one address
			a := base.RandomAddr(rng)
			for i := 0; i < 1+rng.Intn(5); i++ {
				addrs = append(addrs, a)
			}
		}
	}
	return addrs
}

// TestCandidatesMatchMapReference pins the run-boundary candidate scan
// against the retired per-level map bucketing on random hitlists.
func TestCandidatesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		addrs := randomHitlist(rng, 1+rng.Intn(40))
		minTargets := []int{0, 20, 100}[trial%3]
		got := HitlistCandidatesAddrs(addrs, minTargets)
		want := legacyHitlistCandidates(addrs, minTargets)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, legacy %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: candidate %d = %+v, legacy %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// randomVerdicts builds a nested random verdict set like an APD day
// produces: /64s with deeper chains, plus short BGP-style prefixes.
func randomVerdicts(rng *rand.Rand, n int) map[ip6.Prefix]bool {
	out := map[ip6.Prefix]bool{}
	var pool []ip6.Prefix
	for len(out) < n {
		var p ip6.Prefix
		if len(pool) > 0 && rng.Intn(2) == 0 {
			parent := pool[rng.Intn(len(pool))]
			bits := parent.Bits() + 4*(1+rng.Intn(4))
			if bits > 124 {
				bits = 124
			}
			p = ip6.PrefixFrom(parent.RandomAddr(rng), bits)
		} else {
			bits := []int{32, 40, 48, 64, 96}[rng.Intn(5)]
			p = ip6.PrefixFrom(ip6.AddrFromUint64(0x2001<<48|rng.Uint64()&0xff_ffff<<24, rng.Uint64()), bits)
		}
		if _, dup := out[p]; dup {
			continue
		}
		out[p] = rng.Intn(2) == 0
		pool = append(pool, p)
	}
	return out
}

// TestFilterMatchesTrieReference pins the interval-compiled filter
// against the retired trie filter on random verdict sets: point lookups,
// the aliased-prefix list, arbitrary-order Split, and the sorted
// linear-merge classification across worker counts.
func TestFilterMatchesTrieReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		verdicts := randomVerdicts(rng, 1+rng.Intn(150))
		f := NewFilter(verdictsOf(verdicts))
		ref := newLegacyTrieFilter(verdicts)

		var probes []ip6.Addr
		for p := range verdicts {
			probes = append(probes, p.Addr(), p.Last(), p.RandomAddr(rng))
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
		}
		for _, a := range probes {
			if f.IsAliased(a) != ref.IsAliased(a) {
				t.Fatalf("trial %d: IsAliased(%v) = %v, trie %v", trial, a, f.IsAliased(a), ref.IsAliased(a))
			}
		}

		got, want := f.AliasedPrefixes(), ref.AliasedPrefixes()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d aliased prefixes, trie %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: aliased prefix %d = %v, trie %v (walk order)", trial, i, got[i], want[i])
			}
		}

		cg, ag := f.Split(probes)
		cw, aw := ref.Split(probes)
		if len(cg) != len(cw) || len(ag) != len(aw) {
			t.Fatalf("trial %d: Split %d/%d, trie %d/%d", trial, len(cg), len(ag), len(cw), len(aw))
		}

		sorted := append([]ip6.Addr(nil), probes...)
		sortAddrs(sorted)
		wantBits := make([]bool, len(sorted))
		for i, a := range sorted {
			wantBits[i] = ref.IsAliased(a)
		}
		for _, workers := range []int{1, 4, 16} {
			bits := f.Classify(sorted, workers)
			for i := range bits {
				if bits[i] != wantBits[i] {
					t.Fatalf("trial %d workers %d: Classify[%d] (%v) = %v, trie %v",
						trial, workers, i, sorted[i], bits[i], wantBits[i])
				}
			}
			clean, aliased, _ := f.SplitSorted(sorted, workers)
			cr, ar := ref.Split(sorted)
			if !addrsEqual(clean, cr) || !addrsEqual(aliased, ar) {
				t.Fatalf("trial %d workers %d: SplitSorted differs from trie split", trial, workers)
			}
		}
	}
}

func sortAddrs(addrs []ip6.Addr) {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
}

func addrsEqual(a, b []ip6.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomDays simulates an APD study's observation stream: per-day mask
// maps over a prefix pool, with narrowing-style absences.
func randomDays(rng *rand.Rand, prefixes []ip6.Prefix, days int) []map[ip6.Prefix]BranchMask {
	out := make([]map[ip6.Prefix]BranchMask, days)
	for d := range out {
		m := map[ip6.Prefix]BranchMask{}
		for _, p := range prefixes {
			if d > 0 && rng.Intn(3) == 0 {
				continue // narrowed out this day
			}
			mask := BranchMask(rng.Uint64())
			if rng.Intn(3) == 0 {
				mask = AllBranches
			}
			m[p] = mask
		}
		out[d] = m
	}
	return out
}

// TestHistoryMatchesMapReference pins the columnar history against the
// retired per-day map store: merged masks, the observed-prefix list, the
// Table 4 instability metric, and the (union-corrected) aliased sets.
func TestHistoryMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 10; trial++ {
		verdicts := randomVerdicts(rng, 1+rng.Intn(80))
		prefixes := make([]ip6.Prefix, 0, len(verdicts))
		for p := range verdicts {
			prefixes = append(prefixes, p)
		}
		days := randomDays(rng, prefixes, 2+rng.Intn(10))
		var h History
		var ref legacyHistory
		for _, d := range days {
			h.Add(d)
			ref.Add(d)
		}
		if h.Len() != ref.Len() {
			t.Fatalf("trial %d: Len %d vs %d", trial, h.Len(), ref.Len())
		}
		for w := 0; w <= 5; w++ {
			for di := -1; di <= len(days); di++ {
				for _, p := range prefixes {
					if got, want := h.MergedAt(p, di, w), ref.MergedAt(p, di, w); got != want {
						t.Fatalf("trial %d: MergedAt(%v,%d,%d) = %04x, legacy %04x", trial, p, di, w, got, want)
					}
				}
			}
			if got, want := h.UnstablePrefixes(w), ref.UnstablePrefixes(w); got != want {
				t.Fatalf("trial %d: UnstablePrefixes(%d) = %d, legacy %d", trial, w, got, want)
			}
			for di := 0; di < len(days); di++ {
				got := h.AliasedAt(di, w)
				want := ref.aliasedAtUnion(di, w)
				if len(got) != len(want) {
					t.Fatalf("trial %d: AliasedAt(%d,%d) size %d, union reference %d", trial, di, w, len(got), len(want))
				}
				for p := range want {
					if !got[p] {
						t.Fatalf("trial %d: AliasedAt(%d,%d) missing %v", trial, di, w, p)
					}
				}
			}
		}
		gp, wp := h.Prefixes(), ref.Prefixes()
		if len(gp) != len(wp) {
			t.Fatalf("trial %d: Prefixes %d vs %d", trial, len(gp), len(wp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("trial %d: Prefixes[%d] = %v, legacy %v", trial, i, gp[i], wp[i])
			}
		}
		// MergedColumn must agree with per-prefix MergedAt for any workers.
		for _, workers := range []int{1, 4, 16} {
			di := len(days) - 1
			col := h.MergedColumn(di, 3, workers)
			for _, p := range prefixes {
				id, ok := h.table.ID(p)
				if !ok {
					continue
				}
				if col[id] != ref.MergedAt(p, di, 3) {
					t.Fatalf("trial %d workers %d: MergedColumn[%v] = %04x, legacy %04x",
						trial, workers, p, col[id], ref.MergedAt(p, di, 3))
				}
			}
		}
	}
}

// TestAliasedAtNarrowedWindowUnion is the regression test for the
// AliasedAt bugfix: a prefix fully responsive earlier in the window but
// absent from day di's narrowed probe set must still be classified
// aliased; the retired implementation silently dropped it.
func TestAliasedAtNarrowedWindowUnion(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8::/64")
	q := ip6.MustParsePrefix("2001:db8:1::/64")
	day0 := map[ip6.Prefix]BranchMask{p: AllBranches, q: 0x1}
	day1 := map[ip6.Prefix]BranchMask{q: 0x2} // p narrowed out on day 1
	var h History
	h.Add(day0)
	h.Add(day1)
	al := h.AliasedAt(1, 2)
	if !al[p] {
		t.Error("prefix aliased within the window but absent from the narrowed day was dropped")
	}
	if al[q] {
		t.Error("q never reached all branches")
	}
	// A single-day window genuinely excludes the absent prefix.
	if len(h.AliasedAt(1, 1)) != 0 {
		t.Error("single-day window must not see day 0")
	}
	// The retired implementation exhibits the bug (the reason this test
	// exists): p vanishes from the day-1 aliased set.
	var ref legacyHistory
	ref.Add(day0)
	ref.Add(day1)
	if ref.legacyAliasedAt(1, 2)[p] {
		t.Error("legacy reference unexpectedly evaluates the window union")
	}
}

// TestCandidateTable pins ID assignment: first-occurrence order,
// duplicate prefixes sharing an ID, and the entry list surviving as the
// probe order.
func TestCandidateTable(t *testing.T) {
	p1 := ip6.MustParsePrefix("2001:db8::/64")
	p2 := ip6.MustParsePrefix("2001:db8:1::/64")
	p3 := ip6.MustParsePrefix("2001:db8::/48") // BGP-style duplicate region
	cands := []Candidate{{Prefix: p1, Targets: 150}, {Prefix: p2, Targets: 5}, {Prefix: p3}, {Prefix: p1}}
	tab := NewCandidateTable(cands)
	if len(tab.Candidates()) != 4 || tab.NumIDs() != 3 {
		t.Fatalf("entries=%d ids=%d, want 4/3", len(tab.Candidates()), tab.NumIDs())
	}
	if tab.EntryID(0) != tab.EntryID(3) {
		t.Error("duplicate prefix entries must share an ID")
	}
	for i, want := range []ip6.Prefix{p1, p2, p3} {
		if tab.PrefixOf(int32(i)) != want {
			t.Errorf("PrefixOf(%d) = %v, want %v", i, tab.PrefixOf(int32(i)), want)
		}
		if id, ok := tab.ID(want); !ok || id != int32(i) {
			t.Errorf("ID(%v) = %d,%v", want, id, ok)
		}
	}
	if _, ok := tab.ID(ip6.MustParsePrefix("2001:db9::/64")); ok {
		t.Error("unknown prefix resolved")
	}
	if len(tab.Candidates()) != 4 || tab.Candidates()[0].Targets != 150 {
		t.Error("entry list mangled")
	}
}

// TestCandidateTableMatchesRef pins the sort-numbered table against the
// map-based constructor in ref_test.go: the same entry IDs, prefixes and
// CompareNested order, and ID agreeing with the reference map, over
// hitlist-derived lists with BGP duplicates appended, random lists with
// nested and repeated prefixes, and the sizes 0, 1 and 2.
func TestCandidateTableMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	var lists [][]Candidate
	for _, blocks := range []int{1, 8, 40} {
		cands := HitlistCandidatesAddrs(randomHitlist(rng, blocks), 0)
		for i := 0; i < len(cands)/3; i++ { // BGP entries repeat hitlist prefixes
			cands = append(cands, Candidate{Prefix: cands[rng.Intn(len(cands))].Prefix})
		}
		lists = append(lists, cands)
	}
	for _, n := range []int{0, 1, 2, 3, 17, 4000} {
		var pool []ip6.Prefix
		for len(pool) < n/2+1 {
			base := ip6.PrefixFrom(ip6.AddrFromUint64(0x20010db8<<32|rng.Uint64()&0xff<<8, rng.Uint64()), 32+rng.Intn(97))
			pool = append(pool, base)
			for bits := base.Bits() + 4; bits <= 128 && rng.Intn(3) > 0; bits += 4 {
				pool = append(pool, base.Subprefix(bits, rng.Uint64()%16)) // nested inside base
			}
		}
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{Prefix: pool[rng.Intn(len(pool))]}
		}
		lists = append(lists, cands)
	}
	for li, cands := range lists {
		got := NewCandidateTable(cands)
		want, ids := newCandidateTableRef(cands)
		if !slices.Equal(got.entryID, want.entryID) || !slices.Equal(got.prefixes, want.prefixes) || !slices.Equal(got.order, want.order) {
			t.Fatalf("list %d (%d entries): table diverges from the map-based reference", li, len(cands))
		}
		for p, wantID := range ids {
			if id, ok := got.ID(p); !ok || id != wantID {
				t.Fatalf("list %d: ID(%v) = %d,%v, reference %d", li, p, id, ok, wantID)
			}
		}
		if _, ok := got.ID(ip6.MustParsePrefix("2001:db9::/64")); ok {
			t.Fatalf("list %d: unknown prefix resolved", li)
		}
	}
}

// TestHistoryBindAddIDs pins the pipeline's columnar day path (Bind +
// AddIDs over narrowed ID subsets) against the map-based Add path.
func TestHistoryBindAddIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	verdicts := randomVerdicts(rng, 60)
	var cands []Candidate
	for p := range verdicts {
		cands = append(cands, Candidate{Prefix: p})
	}
	// Deterministic probe order, as HitlistCandidates provides.
	sortCandidates(cands)
	cands = append(cands, cands[0]) // duplicate entry, as BGP overlap would
	tab := NewCandidateTable(cands)

	var h History
	h.Bind(tab)
	var ref legacyHistory
	cur := make([]int, len(cands))
	for i := range cur {
		cur[i] = i
	}
	for d := 0; d < 6; d++ {
		ids := make([]int32, 0, len(cur))
		masks := make([]BranchMask, 0, len(cur))
		m := map[ip6.Prefix]BranchMask{}
		for _, ei := range cur {
			mask := BranchMask(rng.Uint64())
			ids = append(ids, tab.EntryID(ei))
			masks = append(masks, mask)
			m[cands[ei].Prefix] |= mask
		}
		h.AddIDs(ids, masks)
		ref.Add(m)
		// Narrow like the pipeline does.
		var next []int
		for _, ei := range cur {
			if rng.Intn(4) > 0 {
				next = append(next, ei)
			}
		}
		if len(next) > 0 {
			cur = next
		}
	}
	for di := 0; di < h.Len(); di++ {
		for _, c := range cands {
			for w := 1; w <= 3; w++ {
				if got, want := h.MergedAt(c.Prefix, di, w), ref.MergedAt(c.Prefix, di, w); got != want {
					t.Fatalf("MergedAt(%v,%d,%d) = %04x, map path %04x", c.Prefix, di, w, got, want)
				}
			}
		}
	}
	if got, want := h.UnstablePrefixes(2), ref.UnstablePrefixes(2); got != want {
		t.Fatalf("UnstablePrefixes = %d, map path %d", got, want)
	}
	// ORDayInto accumulates exactly the per-day OR.
	near := make([]BranchMask, tab.NumIDs())
	for di := 0; di < h.Len(); di++ {
		h.ORDayInto(di, near, 4)
	}
	for _, c := range cands {
		id, _ := tab.ID(c.Prefix)
		want := ref.MergedAt(c.Prefix, h.Len()-1, h.Len())
		if near[id] != want {
			t.Fatalf("near mask for %v = %04x, want %04x", c.Prefix, near[id], want)
		}
	}
}

func sortCandidates(cands []Candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && ip6.ComparePrefix(cands[j].Prefix, cands[j-1].Prefix) < 0; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}
