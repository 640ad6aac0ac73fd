package bgp

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"expanse/internal/ip6"
)

// Table is an IPv6 routing table: announced prefixes with origin ASes and
// the AS registry. The zero value is an empty table ready for Announce.
//
// The table is build-then-read. Announce appends to the build side; the
// first read after an Announce compiles the read side — the sorted
// announcement column and its interval table — and every read until the
// next Announce shares it. Reads are safe for unlimited concurrent use
// (Generate hands out an already compiled table); Announce and Register
// must not run concurrently with anything else.
type Table struct {
	as map[ASN]ASInfo

	// log is every standing announcement in Announce order: the last
	// compiled column followed by whatever was announced since.
	log []Announcement

	mu   sync.Mutex               // serializes compilation
	read atomic.Pointer[compiled] // nil while log holds uncompiled entries
}

// compiled is the immutable read side of a Table.
type compiled struct {
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

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{as: make(map[ASN]ASInfo)}
}

// Register adds (or replaces) an AS in the registry.
func (t *Table) Register(info ASInfo) {
	if t.as == nil {
		t.as = make(map[ASN]ASInfo)
	}
	t.as[info.ASN] = info
}

// Announce inserts a prefix announcement. Re-announcing a prefix replaces
// its origin.
func (t *Table) Announce(p ip6.Prefix, origin ASN) {
	t.log = append(t.log, Announcement{Prefix: p, Origin: origin})
	t.read.Store(nil)
}

// compiled returns the read side, compiling it if an Announce has
// happened since the last read.
func (t *Table) compiled() *compiled {
	if c := t.read.Load(); c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.read.Load(); c != nil {
		return c
	}
	anns := slices.Clone(t.log)
	// Stable: among equal prefixes the latest Announce sorts last, and
	// the dedupe below keeps the last.
	slices.SortStableFunc(anns, func(a, b Announcement) int { return ip6.CompareNested(a.Prefix, b.Prefix) })
	n := 0
	for _, a := range anns {
		if n > 0 && anns[n-1].Prefix == a.Prefix {
			anns[n-1] = a
			continue
		}
		anns[n] = a
		n++
	}
	// Clipped, so the next Announce's append copies instead of writing
	// into the column readers share.
	anns = anns[:n:n]
	t.log = anns

	c := &compiled{anns: anns, origins: make([]ASN, n), asIdx: make([]int32, n)}
	prefixes := make([]ip6.Prefix, n)
	ids := make([]int32, n)
	for i, a := range anns {
		prefixes[i], ids[i], c.origins[i] = a.Prefix, int32(i), a.Origin
	}
	c.ivals = ip6.CompileIntervals(prefixes, ids)
	slices.Sort(c.origins)
	c.origins = slices.Compact(c.origins)
	for i, a := range anns {
		k, _ := slices.BinarySearch(c.origins, a.Origin)
		c.asIdx[i] = int32(k)
	}
	t.read.Store(c)
	return c
}

// Lookup returns the most specific announced prefix covering a and its
// origin AS.
func (t *Table) Lookup(a ip6.Addr) (ip6.Prefix, ASN, bool) {
	c := t.compiled()
	id, ok := ip6.LookupInterval(c.ivals, a)
	if !ok {
		return ip6.Prefix{}, 0, false
	}
	return c.anns[id].Prefix, c.anns[id].Origin, true
}

// Origin returns only the origin AS for a (0, false if unrouted).
func (t *Table) Origin(a ip6.Addr) (ASN, bool) {
	_, asn, ok := t.Lookup(a)
	return asn, ok
}

// IsRouted reports whether any announced prefix covers a.
func (t *Table) IsRouted(a ip6.Addr) bool {
	_, ok := ip6.LookupInterval(t.compiled().ivals, a)
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
func (t *Table) NumPrefixes() int { return len(t.compiled().anns) }

// NumASes returns the number of registered ASes.
func (t *Table) NumASes() int { return len(t.as) }

// Announcements returns every announcement ordered by address then
// length; an announcement's index is its ID. The slice is the table's own
// column, shared between callers: treat it as read-only.
func (t *Table) Announcements() []Announcement { return t.compiled().anns }

// Intervals returns the compiled longest-match table: disjoint sorted
// address intervals valued by announcement ID. Shared and read-only, like
// Announcements.
func (t *Table) Intervals() []ip6.Interval[int32] { return t.compiled().ivals }

// Origins returns the distinct origin ASes of the announcements,
// ascending — the key column of every per-AS tally. Shared and read-only.
func (t *Table) Origins() []ASN { return t.compiled().origins }

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
	for _, a := range t.compiled().anns {
		if a.Origin == asn {
			out = append(out, a.Prefix)
		}
	}
	return out
}
