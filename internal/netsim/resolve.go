package netsim

import (
	"sort"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// This file is the sealed world's one resolver: which aliased region,
// finite host or subscriber pool owns an address. Every entry point reads
// the same three interval tables, compiled once at seal time from the
// final region and network columns (the flattening the alias plane's
// Filter uses, see ip6.CompileIntervals): Probe and ProbeBatch through
// resolve and its run cursors, so a batch of sorted targets pays one
// binary search per *run* of addresses sharing a resolution; ground
// truth, networkOf, InSubscriberSpace and TraceroutePath through
// ip6.LookupInterval point reads. The trie-walking form it replaced is
// the probeRef oracle in ref_test.go.

// tables are the interval-compiled lookup tables. Interval values are
// dense int32 IDs into the flat region/network columns — the tables carry
// no pointers.
type tables struct {
	// alias is the most-specific-wins flattening of the alias regions.
	alias []ip6.Interval[int32]
	// nets is the most-specific-wins flattening of the announcements (the
	// networkOf resolution hosts use for loss/path parameters).
	nets []ip6.Interval[int32]
	// pools is the SHORTEST-match form of the announcement table: only the
	// outermost announcements, which are disjoint — subscriber pools hang
	// off the operator's covering announcement.
	pools []ip6.Interval[int32]
}

// compileTables flattens the region and network columns into their
// interval tables.
func compileTables(regions []AliasRegion, nets []network) tables {
	regionIDs := idRange(len(regions))
	netIDs := idRange(len(nets))
	regionPrefix := func(i int32) ip6.Prefix { return regions[i].Prefix }
	netPrefix := func(i int32) ip6.Prefix { return nets[i].prefix }
	return tables{
		alias: compileLongest(regionIDs, regionPrefix),
		nets:  compileLongest(netIDs, netPrefix),
		pools: compileShortest(netIDs, netPrefix),
	}
}

// cursors is one resolution's worth of run cursors: one per table plus
// the host-column merge cursor.
type cursors struct {
	alias, nets, pools ivalRun[int32]
	hosts              hostRun
}

// cursors returns fresh run cursors over the tables and host columns.
func (in *Internet) cursors() cursors {
	return cursors{
		alias: ivalRun[int32]{tab: in.tabs.alias},
		nets:  ivalRun[int32]{tab: in.tabs.nets},
		pools: ivalRun[int32]{tab: in.tabs.pools},
		hosts: hostRun{hc: &in.hc},
	}
}

// resolve answers one probe: it finds dst's owner and lets that owner
// answer. The order is the world's semantics — an aliased region first
// (unless dst sits in its hole), then a finite host (with the most
// specific announcement's loss/path parameters), then a subscriber pool,
// resolved with the SHORTEST announcement match because pools hang off
// the operator's covering announcement and more-specifics may overlap
// them. Nobody owns anything else. c carries the caller's cursors:
// ProbeBatch keeps them across a batch, Probe passes fresh ones.
func (in *Internet) resolve(c *cursors, dst ip6.Addr, p wire.Proto, day int, at wire.Time) rawResponse {
	if ri, ok := c.alias.lookup(dst); ok {
		if raw, handled := in.probeAliasRaw(&in.regions[ri], dst, p, day, at); handled {
			return raw
		}
	}
	if hi, ok := c.hosts.lookup(dst); ok {
		nwi, ok := c.nets.lookup(dst)
		if !ok {
			nwi = -1
		}
		return in.probeHostRaw(hi, dst, p, day, at, nwi)
	}
	if ni, ok := c.pools.lookup(dst); ok && in.nets[ni].isp >= 0 {
		return in.probeLineRaw(&in.nets[ni], dst, p, day, at)
	}
	return rawResponse{}
}

// idRange returns the dense ID column [0, n).
func idRange(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// compileLongest flattens (prefix → value) entries into the disjoint
// interval table equivalent to a longest-prefix-match trie. Duplicate
// prefixes keep the last entry, as a trie's replacing Insert would.
func compileLongest[V comparable](items []V, prefixOf func(V) ip6.Prefix) []ip6.Interval[V] {
	prefixes, vals := dedupeByPrefix(items, prefixOf)
	return ip6.CompileIntervals(prefixes, vals)
}

// compileShortest flattens entries into the SHORTEST-match table: only
// prefixes not nested inside another entry survive, and since prefixes
// are nested or disjoint (never partially overlapping), the survivors are
// disjoint and each covers exactly its own range.
func compileShortest[V comparable](items []V, prefixOf func(V) ip6.Prefix) []ip6.Interval[V] {
	prefixes, vals := dedupeByPrefix(items, prefixOf)
	// dedupeByPrefix returns (base, bits)-sorted entries, so an entry is
	// outermost iff it is not contained in the last outermost before it.
	var op []ip6.Prefix
	var ov []V
	for i, p := range prefixes {
		if n := len(op); n > 0 && op[n-1].Contains(p.Addr()) {
			continue
		}
		op = append(op, p)
		ov = append(ov, vals[i])
	}
	return ip6.CompileIntervals(op, ov)
}

// dedupeByPrefix sorts entries by (base address, prefix length) and drops
// all but the last entry per exact prefix — the unique, sorted input
// ip6.CompileIntervals requires.
func dedupeByPrefix[V any](items []V, prefixOf func(V) ip6.Prefix) ([]ip6.Prefix, []V) {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ip6.CompareNested(prefixOf(items[order[a]]), prefixOf(items[order[b]])) < 0
	})
	var prefixes []ip6.Prefix
	var vals []V
	for _, oi := range order {
		p := prefixOf(items[oi])
		if n := len(prefixes); n > 0 && prefixes[n-1] == p {
			vals[n-1] = items[oi] // last insertion wins
			continue
		}
		prefixes = append(prefixes, p)
		vals = append(vals, items[oi])
	}
	return prefixes, vals
}

// ivalRun is a cursor over a sorted disjoint interval table that caches
// the run containing the last query — the interval it hit, or the gap
// between intervals it missed into. Queries inside the cached run are two
// address compares; only a run change pays the binary search. This is
// what makes batched resolution cheap: sorted targets advance through
// runs monotonically. A fresh cursor's first lookup is one binary search,
// the point query Probe makes.
type ivalRun[V any] struct {
	tab    []ip6.Interval[V]
	lo, hi ip6.Addr // cached run bounds (inclusive)
	val    V
	hit    bool // cached run is an interval (else a gap)
	valid  bool
}

func (c *ivalRun[V]) lookup(a ip6.Addr) (V, bool) {
	if c.valid && !a.Less(c.lo) && a.Compare(c.hi) <= 0 {
		return c.val, c.hit
	}
	var zero V
	c.val, c.hit, c.valid = zero, false, true
	i := sort.Search(len(c.tab), func(k int) bool { return a.Compare(c.tab[k].Hi) <= 0 })
	if i < len(c.tab) && !a.Less(c.tab[i].Lo) {
		c.lo, c.hi = c.tab[i].Lo, c.tab[i].Hi
		c.val, c.hit = c.tab[i].Val, true
		return c.val, true
	}
	// A gap: from past the previous interval (or the space's bottom) to
	// before the next (or the space's top).
	if i > 0 {
		c.lo = c.tab[i-1].Hi.Next()
	} else {
		c.lo = ip6.Addr{}
	}
	if i < len(c.tab) {
		c.hi = c.tab[i].Lo.Prev()
	} else {
		c.hi = ip6.MaxAddr()
	}
	return zero, false
}

// ProbeBatch implements wire.BatchResponder: it answers probe k exactly
// as Probe(dsts[k], p, day, at[k]) would, writing into out at base+k.
// Safe for unlimited concurrent use under the same contract as Probe;
// concurrent calls must target non-overlapping 64-aligned column ranges
// (see wire.BatchResponder).
func (in *Internet) ProbeBatch(dsts []ip6.Addr, p wire.Proto, day int, at []wire.Time, out *wire.ResultColumns, base int) {
	c := in.cursors()
	for k, dst := range dsts {
		in.emit(out, base+k, in.resolve(&c, dst, p, day, at[k]), day, at[k])
	}
}

// emit writes a rawResponse into column i, interning the TCP fingerprint
// instead of allocating a TCPInfo.
func (in *Internet) emit(out *wire.ResultColumns, i int, raw rawResponse, day int, at wire.Time) {
	if !raw.ok {
		return
	}
	out.OK.Set(i)
	if out.HopLimit != nil {
		out.HopLimit[i] = raw.hop
	}
	if raw.tcp && out.TCPRef != nil {
		fp := raw.m.fingerprint()
		fp.WSize += raw.wsizeAdd
		fp.MSS -= raw.mssSub
		out.TCPRef[i] = out.Table.Intern(fp)
		if present, v := raw.m.tsVal(raw.dstKey, day, at); present {
			out.TSVal[i] = v
		}
	}
}

var _ wire.BatchResponder = (*Internet)(nil)
