package apd

import (
	"sort"

	"expanse/internal/ip6"
	"expanse/internal/par"
)

// Filter is the longest-prefix-match alias filter of §5.1: it stores the
// verdict of every probed prefix and decides per address using the most
// closely covering probed prefix, so a non-aliased more-specific rescues
// its addresses from an aliased less-specific.
//
// The verdict trie is compiled at construction into a sorted table of
// disjoint (lo, hi, aliased) address intervals (ip6.CompileIntervals)
// with most-specific-wins semantics baked in. Point queries are a binary
// search; classifying a sorted address stream (Classify/SplitSorted) is a
// chunk-parallel linear merge against the table — zero per-address trie
// walks either way. The retired trie-walking filter survives as the
// property-test reference.
type Filter struct {
	tab     []ip6.Interval[bool]
	aliased []ip6.Prefix // aliased-verdict prefixes, (address, length) order
}

// NewFilter builds a filter from per-prefix verdicts.
func NewFilter(verdicts map[ip6.Prefix]bool) *Filter {
	ps := make([]ip6.Prefix, 0, len(verdicts))
	vals := make([]bool, 0, len(verdicts))
	for p := range verdicts {
		ps = append(ps, p)
	}
	// Sort by (address, length) — the trie's walk order — so both the
	// compiled table and AliasedPrefixes are pure functions of the
	// verdict set.
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
	f := &Filter{}
	for _, p := range ps {
		v := verdicts[p]
		vals = append(vals, v)
		if v {
			f.aliased = append(f.aliased, p)
		}
	}
	f.tab = ip6.CompileIntervals(ps, vals)
	return f
}

// IsAliased reports whether addr falls under an aliased prefix per the
// most specific probed verdict.
func (f *Filter) IsAliased(addr ip6.Addr) bool {
	v, ok := ip6.LookupInterval(f.tab, addr)
	return ok && v
}

// AliasedPrefixes returns the prefixes with aliased verdicts, in
// (address, length) order.
func (f *Filter) AliasedPrefixes() []ip6.Prefix {
	return append([]ip6.Prefix(nil), f.aliased...)
}

// Intervals exposes the compiled interval table. Read-only.
func (f *Filter) Intervals() []ip6.Interval[bool] { return f.tab }

// Split partitions addresses into non-aliased and aliased per the filter.
// The input may be in any order; each address costs one binary search.
// For the sorted hitlist, SplitSorted is the linear-merge fast path.
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

// Classify returns the per-address aliased flag for an ASCENDING address
// sequence (the ShardSet's cached sorted view) by linearly merging the
// sequence against the interval table. The work is chunked across
// workers; each chunk binary-searches its first interval once and then
// advances both cursors monotonically, so the merge costs O(n + table)
// total and the output is identical for every worker count.
func (f *Filter) Classify(sorted ip6.AddrSeq, workers int) []bool {
	n := sorted.Len()
	out := make([]bool, n)
	tab := f.tab
	par.Ranges(n, workers, chunkFloor, 1, func(_, lo, hi int) {
		first := sorted.At(lo)
		ti := sort.Search(len(tab), func(k int) bool { return first.Compare(tab[k].Hi) <= 0 })
		for i := lo; i < hi; i++ {
			a := sorted.At(i)
			for ti < len(tab) && tab[ti].Hi.Less(a) {
				ti++
			}
			if ti < len(tab) && !a.Less(tab[ti].Lo) {
				out[i] = tab[ti].Val
			}
		}
	})
	return out
}

// SplitSorted partitions an ascending address sequence into non-aliased
// and aliased slices via Classify, preserving order, and also returns
// the raw classification aligned with the input (bits[i]: address i is
// aliased) for consumers that need per-address flags alongside the
// partition. The slices are byte-for-byte the result of Split on the
// same input, at linear-merge cost.
func (f *Filter) SplitSorted(sorted ip6.AddrSeq, workers int) (clean, aliased []ip6.Addr, bits []bool) {
	bits = f.Classify(sorted, workers)
	nAliased := 0
	for _, b := range bits {
		if b {
			nAliased++
		}
	}
	clean = make([]ip6.Addr, 0, len(bits)-nAliased)
	aliased = make([]ip6.Addr, 0, nAliased)
	for i, b := range bits {
		if b {
			aliased = append(aliased, sorted.At(i))
		} else {
			clean = append(clean, sorted.At(i))
		}
	}
	return clean, aliased, bits
}
