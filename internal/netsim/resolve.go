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
// own longest-match table: Probe and ProbeLanes through
// locate and its run cursors, so a batch of sorted targets pays one
// binary search per *run* of addresses sharing a resolution, and a
// target probed on several lanes (protocols, send-time lines) is located
// once for all of them; ground truth, networkOf, poolOf
// (InSubscriberSpace, HopRefs) through ip6.LookupInterval point reads.
// The trie-walking form it replaced is the probeRef oracle in
// ref_test.go, the one-protocol-per-resolution form resolveRef beside it.

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
	// located counts the locate calls made through these cursors — the
	// kernel's unit of work, one per destination whatever the number of
	// lanes (BenchmarkProbeLanes reports it).
	located int
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

// ownerKind says which plane of the world owns an address.
type ownerKind uint8

const (
	ownerNone ownerKind = iota
	ownerAlias
	ownerHost
	ownerLine
)

// owner is who answers for an address on a given day, as locate found
// it: everything about a probe that does not depend on its protocol or
// send time. One owner answers every lane of its destination.
type owner struct {
	kind ownerKind
	// member is which device of the line dst is (ownerLine).
	member addrKind
	keyed  bool
	// id is the region ID (ownerAlias), the sorted host-column position
	// (ownerHost) or the pool's network ID (ownerLine).
	id int32
	// net is the most specific announcement covering an ownerHost, -1 if
	// unannounced.
	net  int32
	line uint64 // ownerLine: the subscriber line dst sits on today
	dst  ip6.Addr
	// dstKey is hashAddr(in.key, dst) once keyed: four Mix rounds most
	// silent owners (a dead host, a protocol nobody serves) never need
	// and no destination needs twice.
	dstKey uint64
	// lossKey, keyed with dstKey, is the owner's half of its per-probe
	// loss draw: hash3(salt, dstKey, b) with its plane's salt is
	// join(lossKey, half(b)), and b's half is computed once per day and
	// protocol (lossHalf) or, for a CPE, per day. Client lines draw no
	// loss.
	lossKey uint64
}

// key returns the destination's keyed hash, computing it on first use
// (out of line, so the cached read inlines into the answer functions).
func (o *owner) key(in *Internet) uint64 {
	if o.keyed {
		return o.dstKey
	}
	return o.hashKey(in)
}

// hashKey is key's first use.
func (o *owner) hashKey(in *Internet) uint64 {
	o.dstKey, o.keyed = hashAddr(in.key, o.dst), true
	var salt uint64
	switch {
	case o.kind == ownerHost:
		salt = 0x1055
	case o.kind == ownerLine && o.member == lineCPE:
		salt = 0xc9e
	case o.kind == ownerLine && o.member == lineNAS:
		salt = 0x4a5a
	}
	o.lossKey = hash2(in.key^salt, o.dstKey)
	return o.dstKey
}

// loss returns the owner's half of its loss draw (see lossKey).
func (o *owner) loss(in *Internet) uint64 {
	o.key(in)
	return o.lossKey
}

// lossHalf is the day-and-protocol half of the loss draws.
func lossHalf(day int, p wire.Proto) uint64 { return half(uint64(day)<<3 | uint64(p)) }

// locate finds dst's owner on the given day. The order is the world's
// semantics — an aliased region first (unless dst sits in its hole), then
// a finite host (with the most specific announcement's loss/path
// parameters), then a subscriber pool, resolved with the SHORTEST
// announcement match because pools hang off the operator's covering
// announcement and more-specifics may overlap them, and within the pool
// the line member dst is today. Nobody owns anything else. locate never
// sees a protocol or a send time, so its result serves every lane of
// dst; the day enters only through the pool's rotation. c carries the
// caller's cursors: ProbeLanes keeps them across a batch, Probe passes
// fresh ones. The owner is filled in place for the reason a rawResponse
// is (see there), and field by field: a whole-struct literal costs a wide
// store per destination, while the fields a kind does not read may keep
// the previous destination's values (keyed guards the hashes).
func (in *Internet) locate(c *cursors, dst ip6.Addr, day int, o *owner) {
	c.located++
	if ri, ok := c.alias.Lookup(dst); ok {
		if r := &in.regions[ri]; r.Hole.IsZero() || !r.Hole.Contains(dst) {
			o.kind, o.id, o.dst, o.keyed = ownerAlias, ri, dst, false
			return
		}
	}
	if hi, ok := c.hosts.lookup(dst); ok {
		nwi, ok := c.nets.Lookup(dst)
		if !ok {
			nwi = -1
		}
		o.kind, o.id, o.net, o.dst, o.keyed = ownerHost, hi, nwi, dst, false
		return
	}
	if ni, ok := c.pools.Lookup(dst); ok && in.nets[ni].isp >= 0 {
		if line, member, ok := in.isps[in.nets[ni].isp].lineAt(dst, day); ok {
			o.kind, o.member, o.id, o.line, o.dst, o.keyed = ownerLine, member, ni, line, dst, false
			return
		}
	}
	o.kind = ownerNone
}

// answer lets o answer one probe in full into raw — the per-protocol,
// per-send-time half of a resolution: the decide half fixes raw.ok, and
// only a positive answer is described (see netsim.go). raw's other
// fields are meaningful only when raw.ok is set.
func (in *Internet) answer(o *owner, p wire.Proto, day int, at wire.Time, lh uint64, raw *rawResponse) {
	if raw.ok = in.decide(o, p, day, at, lh); raw.ok {
		in.describe(o, p, at, raw)
	}
}

// decide reports whether o answers one probe: the decide half alone, all
// a lane that records only OK needs. lh is lossHalf(day, p).
func (in *Internet) decide(o *owner, p wire.Proto, day int, at wire.Time, lh uint64) bool {
	switch o.kind {
	case ownerAlias:
		return in.decideAlias(&in.regions[o.id], o, p, day, lh)
	case ownerHost:
		return in.decideHost(o, p, day, at, lh)
	case ownerLine:
		return in.decideLine(o, p, day, at, lh)
	}
	return false
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

// ProbeLanes implements wire.Responder: it answers destination k on lane
// l exactly as Probe(dsts[k], l.Proto, day, l.At[k]) would, writing into
// l.Out at base+k — every lane of a destination from the one owner
// located for it. Safe for unlimited concurrent use under the same
// contract as Probe; concurrent calls must target non-overlapping
// 64-aligned column ranges (see wire.Responder).
func (in *Internet) ProbeLanes(dsts []ip6.Addr, day int, lanes []wire.Lane, base int) {
	c := in.cursors()
	in.probeLanes(&c, dsts, day, lanes, base)
}

// probeLanes is ProbeLanes over the caller's cursors. A lane whose
// columns record only OK (wire.ResultColumns.ResetOK) gets the decide
// half of each answer alone; the others get full answers.
func (in *Internet) probeLanes(c *cursors, dsts []ip6.Addr, day int, lanes []wire.Lane, base int) {
	// full has bit l%64 set if lane l records a hop limit or a
	// fingerprint. Lanes past the 64th share a bit, which can only make
	// an OK-only lane describe answers it then drops.
	var full uint64
	for li := range lanes {
		if out := lanes[li].Out; out.HopLimit != nil || out.TCP != nil {
			full |= 1 << (li & 63)
		}
	}
	var lh [wire.NumProtos]uint64
	for p := range lh {
		lh[p] = lossHalf(day, wire.Proto(p))
	}
	var o owner
	var raw rawResponse
	for k, dst := range dsts {
		in.locate(c, dst, day, &o)
		if o.kind == ownerNone {
			continue
		}
		for li := range lanes {
			l := &lanes[li]
			at := l.At[k]
			if full>>(li&63)&1 == 0 {
				if in.decide(&o, l.Proto, day, at, lh[l.Proto]) {
					l.Out.OK.Set(base + k)
				}
				continue
			}
			in.answer(&o, l.Proto, day, at, lh[l.Proto], &raw)
			in.emit(l.Out, base+k, &raw, day, at)
		}
	}
}

// ProbeBatch is the one-lane call of ProbeLanes: probe k answered exactly
// as Probe(dsts[k], p, day, at[k]) would be, into out at base+k.
func (in *Internet) ProbeBatch(dsts []ip6.Addr, p wire.Proto, day int, at []wire.Time, out *wire.ResultColumns, base int) {
	lane := [1]wire.Lane{{Proto: p, At: at, Out: out}}
	in.ProbeLanes(dsts, day, lane[:], base)
}

// emit writes a rawResponse into column i.
func (in *Internet) emit(out *wire.ResultColumns, i int, raw *rawResponse, day int, at wire.Time) {
	if !raw.ok {
		return
	}
	out.OK.Set(i)
	if out.HopLimit != nil {
		out.HopLimit[i] = raw.hop
	}
	if raw.tcp && out.TCP != nil {
		info := raw.synAck(day, at)
		out.TCP[i] = info.TCPFingerprint
		out.TSVal[i] = info.TSVal
	}
}

var _ wire.Responder = (*Internet)(nil)
