package apd

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// The map-keyed generation of the alias-plane API, retired from
// production (the pipeline probes through ProbeDayFlat, records through
// Bind/AddIDs and evaluates through WindowColumns/MergeColumns) and kept
// here as the oracle the tests drive the columnar entry points against: per-prefix mask maps, lazily registered prefix
// IDs, per-prefix window lookups and the aliased-set scans.

// ProbeDay is ProbeDayFlat over the candidates' fan-out column with the
// masks assembled into a per-prefix map, duplicate candidate prefixes
// OR-merged.
func (d *Detector) ProbeDay(cands []Candidate, day int) map[ip6.Prefix]BranchMask {
	flat := d.ProbeDayFlat(FanOutColumn(cands, d.workers), day)
	masks := make(map[ip6.Prefix]BranchMask, len(cands))
	for ci, c := range cands {
		masks[c.Prefix] |= flat[ci]
	}
	return masks
}

// fanOutRef is FanOut over a freshly seeded math/rand generator — the
// production form until lazyrand computed the same 32 draws directly.
func fanOutRef(p ip6.Prefix) [Branches]ip6.Addr {
	rng := rand.New(rand.NewSource(fanSeed(p)))
	var out [Branches]ip6.Addr
	sub := p.Bits() + 4
	if sub > 128 {
		sub = 128
	}
	for i := 0; i < Branches; i++ {
		out[i] = p.Subprefix(sub, uint64(i)).RandomAddr(rng)
	}
	return out
}

// randomTargetsRef draws n addresses inside p from math/rand seeded with
// seed: the retired body of RandomTargets and, per /96, murdockTargets.
func randomTargetsRef(p ip6.Prefix, n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = p.RandomAddr(rng)
	}
	return out
}

// verdictsOf turns a per-prefix verdict map — the form Seal built before
// the verdict column — into Verdicts: keys sorted by (address, length).
func verdictsOf(m map[ip6.Prefix]bool) Verdicts {
	v := Verdicts{Prefixes: make([]ip6.Prefix, 0, len(m)), Aliased: make([]bool, 0, len(m))}
	for p := range m {
		v.Prefixes = append(v.Prefixes, p)
	}
	slices.SortFunc(v.Prefixes, ip6.CompareNested)
	for _, p := range v.Prefixes {
		v.Aliased = append(v.Aliased, m[p])
	}
	return v
}

// caseCountsTrie is the retired trie-backed CaseCounts: every prefix
// finds its closest probed ancestor by exact-match probes down the bit
// lengths.
func caseCountsTrie(verdicts map[ip6.Prefix]bool) map[NestedCase]int {
	var t ip6.Trie[bool]
	for p, v := range verdicts {
		t.Insert(p, v)
	}
	counts := map[NestedCase]int{}
	for p, more := range verdicts {
		for bits := p.Bits() - 1; bits >= 0; bits-- {
			less, ok := t.Get(ip6.PrefixFrom(p.Addr(), bits))
			if !ok {
				continue
			}
			switch {
			case more && less:
				counts[CaseBothAliased]++
			case !more && !less:
				counts[CaseBothNonAliased]++
			case more && !less:
				counts[CaseMoreAliasedLessNot]++
			default:
				counts[CaseMoreNotLessAliased]++
			}
			break
		}
	}
	return counts
}

// Split partitions addresses in any order into non-aliased and aliased,
// one binary search each — the oracle SplitSorted's linear merge is
// pinned against.
func (f *Filter) Split(addrs []ip6.Addr) (clean, aliased []ip6.Addr) {
	for _, a := range addrs {
		if f.IsAliased(a) {
			aliased = append(aliased, a)
		} else {
			clean = append(clean, a)
		}
	}
	return clean, aliased
}

// HitlistCandidatesAddrs is HitlistCandidates over a plain address slice;
// the slice is copied, sorted and fed through the same run-boundary scan.
// Duplicate addresses count once per occurrence, as in the original
// bucketing path.
func HitlistCandidatesAddrs(addrs []ip6.Addr, minTargets int) []Candidate {
	sorted := make([]ip6.Addr, len(addrs))
	copy(sorted, addrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	return candidatesFromSorted(sorted, minTargets)
}

// newCandidateTableRef is NewCandidateTable's map-based generation, the
// oracle the sort-numbered table is pinned against: a prefix-keyed map
// assigns IDs in first-occurrence order, then the IDs are sorted into
// CompareNested order. The map is returned beside the table.
func newCandidateTableRef(cands []Candidate) (*CandidateTable, map[ip6.Prefix]int32) {
	t := &CandidateTable{cands: cands, entryID: make([]int32, len(cands))}
	ids := make(map[ip6.Prefix]int32, len(cands))
	for i, c := range cands {
		id, ok := ids[c.Prefix]
		if !ok {
			id = int32(len(t.prefixes))
			ids[c.Prefix] = id
			t.prefixes = append(t.prefixes, c.Prefix)
		}
		t.entryID[i] = id
	}
	t.order = make([]int32, len(t.prefixes))
	for i := range t.order {
		t.order[i] = int32(i)
	}
	slices.SortFunc(t.order, func(a, b int32) int {
		return ip6.CompareNested(t.prefixes[a], t.prefixes[b])
	})
	return t, ids
}

// ID returns the ID of a prefix, or ok=false if it is not in the table:
// a binary search of order.
func (t *CandidateTable) ID(p ip6.Prefix) (int32, bool) {
	k, ok := slices.BinarySearchFunc(t.order, p, func(id int32, p ip6.Prefix) int {
		return ip6.CompareNested(t.prefixes[id], p)
	})
	if !ok {
		return 0, false
	}
	return t.order[k], true
}

// Add appends one day's observation from a per-prefix mask map. An
// unbound history grows a private table: unseen prefixes are registered
// in ComparePrefix order, keeping ID assignment a pure function of the
// observation sequence.
func (h *History) Add(day map[ip6.Prefix]BranchMask) {
	if h.table == nil {
		h.table = &CandidateTable{}
	}
	t := h.table
	var fresh []ip6.Prefix
	for p := range day {
		if _, ok := t.ID(p); !ok {
			fresh = append(fresh, p)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return ip6.ComparePrefix(fresh[i], fresh[j]) < 0 })
	for _, p := range fresh {
		k, _ := slices.BinarySearchFunc(t.order, p, func(id int32, p ip6.Prefix) int {
			return ip6.CompareNested(t.prefixes[id], p)
		})
		t.order = slices.Insert(t.order, k, int32(len(t.prefixes)))
		t.prefixes = append(t.prefixes, p)
	}
	ids := make([]int32, 0, len(day))
	masks := make([]BranchMask, 0, len(day))
	for _, p := range ip6.SortedKeys(day) {
		id, _ := t.ID(p)
		ids = append(ids, id)
		masks = append(masks, day[p])
	}
	h.AddIDs(ids, masks)
}

// MergedAt returns the branch mask of prefix p at day index di, OR-merged
// over a sliding window of `window` days TOTAL ending at di (window 1 =
// that day only; values below 1 are clamped to 1): a branch counts as
// responsive if its address answered any protocol on any day in the
// window (§5.2). The paper's 3-day window therefore merges exactly days
// di-2 .. di — an earlier version merged window+1 days, silently turning
// the §5.2 evaluation into a 4-day merge.
func (h *History) MergedAt(p ip6.Prefix, di, window int) BranchMask {
	if window < 1 {
		window = 1
	}
	if h.table == nil {
		return 0
	}
	id, ok := h.table.ID(p)
	if !ok {
		return 0
	}
	var m BranchMask
	for i := windowStart(di, window); i <= di && i < len(h.days); i++ {
		m |= h.days[i].Mask(id)
	}
	return m
}

// MergedColumn returns the whole ID space's window-merged masks at day
// index di — MergeColumns applied to the live history's window.
func (h *History) MergedColumn(di, window, workers int) []BranchMask {
	return MergeColumns(h.WindowColumns(di, window), h.width(), workers)
}

// presentUnion returns the union of the presence bitmaps over the window
// ending at di.
func (h *History) presentUnion(di, window int) wire.Bitset {
	u := wire.NewBitset(h.width())
	for i := windowStart(di, window); i <= di && i < len(h.days); i++ {
		for w, word := range h.days[i].present {
			u[w] |= word
		}
	}
	return u
}

// AliasedAt returns the set of prefixes classified aliased at day index
// di under the given sliding window. A prefix participates if it was
// probed on ANY day of the window, not just day di — later days narrow
// the probe set to near-aliased candidates, and the old per-day iteration
// silently dropped prefixes responsive earlier in the window but absent
// from day di's narrowed probe set.
func (h *History) AliasedAt(di, window int) map[ip6.Prefix]bool {
	return h.AliasedAtWorkers(di, window, runtime.GOMAXPROCS(0))
}

// AliasedAtWorkers is AliasedAt with an explicit worker cap for the
// column scan (the result is identical for every value).
func (h *History) AliasedAtWorkers(di, window, workers int) map[ip6.Prefix]bool {
	out := make(map[ip6.Prefix]bool)
	if di >= len(h.days) || di < 0 {
		return out
	}
	if window < 1 {
		window = 1
	}
	present := h.presentUnion(di, window)
	merged := h.MergedColumn(di, window, workers)
	for id, m := range merged {
		if m == AllBranches && present.Get(id) {
			out[h.table.prefixes[id]] = true
		}
	}
	return out
}

// Prefixes returns every prefix ever observed, sorted.
func (h *History) Prefixes() []ip6.Prefix {
	seen := h.presentUnion(len(h.days)-1, len(h.days))
	var out []ip6.Prefix
	for id := 0; id < h.width(); id++ {
		if seen.Get(id) {
			out = append(out, h.table.prefixes[id])
		}
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// UnstablePrefixes is UnstablePrefixesWorkers scanning with all
// available CPUs.
func (h *History) UnstablePrefixes(window int) int {
	return h.UnstablePrefixesWorkers(window, runtime.GOMAXPROCS(0))
}
