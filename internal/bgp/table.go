package bgp

import (
	"fmt"
	"slices"
	"sort"

	"expanse/internal/ip6"
)

// Table is an IPv6 routing table: announced prefixes with origin ASes and
// the AS registry. NewTable compiles it once — the sorted announcement
// column and its interval table — and it is read-only after: reads are
// safe for unlimited concurrent use. The zero value is an empty table.
type Table struct {
	as map[ASN]ASInfo

	// anns is the announcement column in ip6.CompareNested (address,
	// length) order with unique prefixes. An announcement's index is its
	// ID — the value of ivals, of Resolve's column and of Tally.Counts.
	anns []Announcement
	// ivals is the most-specific-wins flattening of anns.
	ivals []ip6.Interval[int32]
	// origins lists the distinct origin ASes ascending; asIdx maps an
	// announcement ID to its origin's index there, so per-AS tallies are
	// dense slices too.
	origins []ASN
	asIdx   []int32
}

// NewTable compiles a routing table from its AS registry and its
// announcements. A later entry for the same ASN or the same prefix
// replaces an earlier one, as a re-announcement replaces the route it
// repeats. anns is not modified.
func NewTable(ases []ASInfo, anns []Announcement) *Table {
	t := &Table{as: make(map[ASN]ASInfo, len(ases))}
	for _, info := range ases {
		t.as[info.ASN] = info
	}
	sorted := slices.Clone(anns)
	// Stable: among equal prefixes the later entry sorts last, and the
	// dedupe below keeps the last.
	slices.SortStableFunc(sorted, func(a, b Announcement) int { return ip6.CompareNested(a.Prefix, b.Prefix) })
	n := 0
	for _, a := range sorted {
		if n > 0 && sorted[n-1].Prefix == a.Prefix {
			sorted[n-1] = a
			continue
		}
		sorted[n] = a
		n++
	}
	t.anns = sorted[:n:n]
	t.origins, t.asIdx = make([]ASN, n), make([]int32, n)
	prefixes := make([]ip6.Prefix, n)
	ids := make([]int32, n)
	for i, a := range t.anns {
		prefixes[i], ids[i], t.origins[i] = a.Prefix, int32(i), a.Origin
	}
	t.ivals = ip6.CompileIntervals(prefixes, ids)
	slices.Sort(t.origins)
	t.origins = slices.Compact(t.origins)
	for i, a := range t.anns {
		k, _ := slices.BinarySearch(t.origins, a.Origin)
		t.asIdx[i] = int32(k)
	}
	return t
}

// Lookup returns the most specific announced prefix covering a and its
// origin AS.
func (t *Table) Lookup(a ip6.Addr) (ip6.Prefix, ASN, bool) {
	id, ok := ip6.LookupInterval(t.ivals, a)
	if !ok {
		return ip6.Prefix{}, 0, false
	}
	return t.anns[id].Prefix, t.anns[id].Origin, true
}

// Origin returns only the origin AS for a (0, false if unrouted).
func (t *Table) Origin(a ip6.Addr) (ASN, bool) {
	_, asn, ok := t.Lookup(a)
	return asn, ok
}

// IsRouted reports whether any announced prefix covers a.
func (t *Table) IsRouted(a ip6.Addr) bool {
	_, ok := ip6.LookupInterval(t.ivals, a)
	return ok
}

// AS returns registry information for an ASN. Unregistered ASNs yield a
// placeholder with a synthesized name.
func (t *Table) AS(asn ASN) ASInfo {
	if info, ok := t.as[asn]; ok {
		return info
	}
	return ASInfo{ASN: asn, Name: fmt.Sprintf("AS%d", asn), Kind: KindEnterprise, Country: "ZZ"}
}

// NumPrefixes returns the number of announced prefixes.
func (t *Table) NumPrefixes() int { return len(t.anns) }

// Announcements returns every announcement ordered by address then
// length; an announcement's index is its ID. The slice is the table's own
// column, shared between callers: treat it as read-only.
func (t *Table) Announcements() []Announcement { return t.anns }

// Intervals returns the compiled longest-match table: disjoint sorted
// address intervals valued by announcement ID. Shared and read-only, like
// Announcements.
func (t *Table) Intervals() []ip6.Interval[int32] { return t.ivals }

// Origins returns the distinct origin ASes of the announcements,
// ascending — the key column of every per-AS tally. Shared and read-only.
func (t *Table) Origins() []ASN { return t.origins }

// ASes returns all registered ASes sorted by ASN.
func (t *Table) ASes() []ASInfo {
	out := make([]ASInfo, 0, len(t.as))
	for _, info := range t.as {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// PrefixesOf returns all announcements originated by asn, ordered.
func (t *Table) PrefixesOf(asn ASN) []ip6.Prefix {
	var out []ip6.Prefix
	for _, a := range t.anns {
		if a.Origin == asn {
			out = append(out, a.Prefix)
		}
	}
	return out
}
