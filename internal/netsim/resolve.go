package netsim

import (
	"sort"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// This file is the sealed world's one resolver: which aliased region,
// finite host or subscriber pool owns an address. Every entry point reads
// the same three interval tables, fixed at seal time — two compiled from
// the final region and network columns (the flattening the alias plane's
// Filter uses, see ip6.CompileIntervals), the third the routing table's
// own longest-match table: Probe and ProbeBatch through
// resolve and its run cursors, so a batch of sorted targets pays one
// binary search per *run* of addresses sharing a resolution; ground
// truth, networkOf, poolOf (InSubscriberSpace, HopRefs) through
// ip6.LookupInterval point reads. The trie-walking form it replaced is
// the probeRef oracle in ref_test.go.

// tables are the interval-compiled lookup tables. Interval values are
// dense int32 IDs into the flat region/network columns — the tables carry
// no pointers.
type tables struct {
	// alias is the most-specific-wins flattening of the alias regions.
	alias []ip6.Interval[int32]
	// nets is the most-specific-wins flattening of the announcements (the
	// networkOf resolution hosts use for loss/path parameters): the
	// routing table's own compiled form, shared read-only.
	nets []ip6.Interval[int32]
	// pools is the SHORTEST-match form of the announcement table: only the
	// outermost announcements, which are disjoint — subscriber pools hang
	// off the operator's covering announcement.
	pools []ip6.Interval[int32]
}

// compileTables flattens the region and network columns into their
// interval tables. The longest-match announcement table is the routing
// table's own: planBulk builds the network column in Announcements()
// order, so a net ID is an announcement ID.
func compileTables(regions []AliasRegion, nets []network, table *bgp.Table) tables {
	return tables{
		alias: compileAlias(regions),
		nets:  table.Intervals(),
		pools: compileShortest(nets),
	}
}

// cursors is one resolution's worth of run cursors: one per table plus
// the host-column merge cursor.
type cursors struct {
	alias, nets, pools ip6.IntervalCursor[int32]
	hosts              hostRun
}

// cursors returns fresh run cursors over the tables and host columns.
func (in *Internet) cursors() cursors {
	return cursors{
		alias: ip6.NewIntervalCursor(in.tabs.alias),
		nets:  ip6.NewIntervalCursor(in.tabs.nets),
		pools: ip6.NewIntervalCursor(in.tabs.pools),
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
	if ri, ok := c.alias.Lookup(dst); ok {
		if raw, handled := in.probeAliasRaw(&in.regions[ri], dst, p, day, at); handled {
			return raw
		}
	}
	if hi, ok := c.hosts.lookup(dst); ok {
		nwi, ok := c.nets.Lookup(dst)
		if !ok {
			nwi = -1
		}
		return in.probeHostRaw(hi, dst, p, day, at, nwi)
	}
	if ni, ok := c.pools.Lookup(dst); ok && in.nets[ni].isp >= 0 {
		return in.probeLineRaw(&in.nets[ni], dst, p, day, at)
	}
	return rawResponse{}
}

// compileAlias flattens the alias regions into their longest-match
// table: region IDs sorted by (base address, prefix length), all but the
// last region per exact prefix dropped — as a trie's replacing Insert
// would — which is the unique, sorted input ip6.CompileIntervals requires.
func compileAlias(regions []AliasRegion) []ip6.Interval[int32] {
	order := make([]int32, len(regions))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ip6.CompareNested(regions[order[a]].Prefix, regions[order[b]].Prefix) < 0
	})
	var prefixes []ip6.Prefix
	var ids []int32
	for _, id := range order {
		p := regions[id].Prefix
		if n := len(prefixes); n > 0 && prefixes[n-1] == p {
			ids[n-1] = id // last insertion wins
			continue
		}
		prefixes = append(prefixes, p)
		ids = append(ids, id)
	}
	return ip6.CompileIntervals(prefixes, ids)
}

// compileShortest flattens the network column into the SHORTEST-match
// table: only announcements not nested inside another survive, and since
// prefixes are nested or disjoint (never partially overlapping), the
// survivors are disjoint and each covers exactly its own range. The
// column is in Announcements() order — (base, bits)-sorted and unique —
// so a network is outermost iff it is not contained in the last
// outermost before it.
func compileShortest(nets []network) []ip6.Interval[int32] {
	var prefixes []ip6.Prefix
	var ids []int32
	for i := range nets {
		p := nets[i].prefix
		if n := len(prefixes); n > 0 && prefixes[n-1].Contains(p.Addr()) {
			continue
		}
		prefixes = append(prefixes, p)
		ids = append(ids, int32(i))
	}
	return ip6.CompileIntervals(prefixes, ids)
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
		m := raw.m.unpack()
		fp := m.fingerprint()
		fp.WSize += raw.wsizeAdd
		fp.MSS -= raw.mssSub
		out.TCPRef[i] = out.Table.Intern(fp)
		if present, v := m.tsVal(raw.dstKey, day, at); present {
			out.TSVal[i] = v
		}
	}
}

var _ wire.BatchResponder = (*Internet)(nil)
