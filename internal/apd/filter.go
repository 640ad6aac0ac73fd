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
// The verdict column is compiled at construction into a sorted table of
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

// NewFilter compiles a day's verdict column. The column is already in
// the compiler's input order, so this is linear passes: the compile, a
// count of the aliased verdicts and the one exact-size allocation the
// count buys (tens of thousands of prefixes per seal, every day).
func NewFilter(v Verdicts) *Filter {
	f := &Filter{tab: ip6.CompileIntervals(v.Prefixes, v.Aliased)}
	n := 0
	for _, aliased := range v.Aliased {
		if aliased {
			n++
		}
	}
	f.aliased = make([]ip6.Prefix, 0, n)
	for i, p := range v.Prefixes {
		if v.Aliased[i] {
			f.aliased = append(f.aliased, p)
		}
	}
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

// Classify returns the per-address aliased flag for an ASCENDING address
// slice (the ShardSet's cached sorted view) by linearly merging the
// slice against the interval table. The work is chunked across
// workers; each chunk binary-searches its first interval once and then
// advances both cursors monotonically, so the merge costs O(n + table)
// total and the output is identical for every worker count.
func (f *Filter) Classify(sorted []ip6.Addr, workers int) []bool {
	out := make([]bool, len(sorted))
	tab := f.tab
	par.Ranges(len(sorted), workers, chunkFloor, 1, func(_, lo, hi int) {
		first := sorted[lo]
		ti := sort.Search(len(tab), func(k int) bool { return first.Compare(tab[k].Hi) <= 0 })
		for i, a := range sorted[lo:hi] {
			for ti < len(tab) && tab[ti].Hi.Less(a) {
				ti++
			}
			if ti < len(tab) && !a.Less(tab[ti].Lo) {
				out[lo+i] = tab[ti].Val
			}
		}
	})
	return out
}

// SplitSorted partitions an ascending address slice into non-aliased
// and aliased slices via Classify, preserving order, and also returns
// the raw classification aligned with the input (bits[i]: address i is
// aliased) for consumers that need per-address flags alongside the
// partition.
func (f *Filter) SplitSorted(sorted []ip6.Addr, workers int) (clean, aliased []ip6.Addr, bits []bool) {
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
			aliased = append(aliased, sorted[i])
		} else {
			clean = append(clean, sorted[i])
		}
	}
	return clean, aliased, bits
}
