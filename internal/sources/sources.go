// Package sources implements the seven hitlist collectors of §3 — domain
// lists (DL), Rapid7 forward DNS (FDNS), Certificate Transparency (CT),
// zone transfers (AXFR), Bitnodes (BIT), RIPE Atlas (RA), and scamper
// traceroutes — plus the accumulating hitlist store with per-epoch runup
// tracking (Figure 1a) and per-source statistics (Table 2).
package sources

import (
	"math/bits"
	"runtime"
	"slices"

	"expanse/internal/bgp"
	"expanse/internal/dnssim"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/par"
)

// Canonical source names, in the paper's table order.
const (
	DL      = "Domainlists"
	FDNS    = "FDNS"
	CT      = "CT"
	AXFR    = "AXFR"
	BIT     = "Bitnodes"
	RA      = "RIPE Atlas"
	Scamper = "Scamper"
)

// Names lists all sources in display order.
var Names = []string{DL, FDNS, CT, AXFR, BIT, RA, Scamper}

// Source produces addresses on collection days.
//
// An instance serves one accumulating hitlist, fed in ascending day
// order: Collect returns what the source sees on the given day that no
// earlier call on this instance has returned — everything visible on a
// fresh instance's first call, the epoch's delta afterwards — so adding
// every call's output to one set accumulates exactly what re-reporting
// the full visible set each day would, in the same insertion order.
// Addresses that move (dynamic-DNS names, CPE hops) are re-derived on
// every call. What an instance remembers is a cache over the hitlist it
// feeds, never the record of it: fresh instances handed a populated
// hitlist (core.Resume) report their full visible set once, all of it
// already in the set, and deltas from then on.
type Source interface {
	Name() string
	// Collect returns the addresses newly visible to this source on the
	// given day. hitlist is the accumulated hitlist the output is added
	// to (read by scamper, which traceroutes all known targets).
	Collect(day int, hitlist *ip6.ShardSet) []ip6.Addr
}

// firstEpoch deterministically assigns the collection epoch at which a
// name becomes visible to a source — this produces the cumulative runup
// of Figure 1a. key is the name's FNV-1a hash (dnssim.Server.Key); the
// draw hashes name, "|" and salt by continuing it.
func firstEpoch(key uint64, salt string, epochs int) int {
	if epochs <= 1 {
		return 0
	}
	return int(hash64.Continue(key, "|", salt) % uint64(epochs))
}

// addrEpoch is firstEpoch for address-keyed sources. It draws from
// Addr.Hash64 mixed with the salt hash instead of formatting the address
// to text — hash64.String(a.String()) cost an allocation plus an RFC 5952
// format per address per collection day on the Bitnodes/Atlas/scamper
// hot paths. The XOR is re-finalized through hash64.Mix: several consumers
// reduce the same Hash64 by small moduli (the Atlas router filter, this
// epoch draw), and without the extra mix those draws share parity and
// correlate instead of being independent.
func addrEpoch(a ip6.Addr, salt string, epochs int) int {
	if epochs <= 1 {
		return 0
	}
	return int(hash64.Mix(a.Hash64()^hash64.String(salt)) % uint64(epochs))
}

// reported is the delta bookkeeping of the epoch-keyed sources: the
// first collection epoch an instance has not reported yet.
type reported struct {
	perDay int
	next   int16
}

// window returns the first-epoch range [from, to] a call on the given
// day reports for the first time (from > to: nothing new) and marks it
// reported.
func (r *reported) window(day int) (from, to int16) {
	from, to = r.next, int16(day/r.perDay)
	r.next = max(r.next, to+1)
	return from, to
}

// dnsSource is a generic forward-DNS-based collector. It keeps the
// indices of the names it sees and their first epochs; targets, static
// and dynamic, are read from the server on every call.
type dnsSource struct {
	name   string
	dns    *dnssim.Server
	idx    []int32 // the visible names, ascending
	epochs []int16 // firstEpoch per visible name
	reported
}

func (s *dnsSource) Name() string { return s.name }

// Collect returns the names first visible in the reported window, and
// every visible dynamic name, which may have moved since.
func (s *dnsSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	from, to := s.window(day)
	var out []ip6.Addr
	for j, e := range s.epochs {
		i := int(s.idx[j])
		if e <= to && (e >= from || s.dns.Dynamic(i)) {
			out = append(out, s.dns.Resolve(i, day))
		}
	}
	return out
}

// NewDL builds the domain-lists source: zone files, toplists, blacklists.
func NewDL(dns *dnssim.Server, cfg netsim.Config) Source {
	return newDNSSource(DL, dns, cfg, func(v dnssim.Vis) bool {
		return v.Has(dnssim.VisZoneFile) || v.Has(dnssim.VisBlacklist)
	})
}

// NewFDNS builds the Rapid7 forward-DNS ANY source.
func NewFDNS(dns *dnssim.Server, cfg netsim.Config) Source {
	return newDNSSource(FDNS, dns, cfg, func(v dnssim.Vis) bool { return v.Has(dnssim.VisFDNS) })
}

// NewCT builds the Certificate Transparency source. Per the paper, names
// already covered by the domain lists are excluded.
func NewCT(dns *dnssim.Server, cfg netsim.Config) Source {
	return newDNSSource(CT, dns, cfg, func(v dnssim.Vis) bool {
		return v.Has(dnssim.VisCT) && !v.Has(dnssim.VisZoneFile)
	})
}

// NewAXFR builds the zone-transfer source (TLDR-style).
func NewAXFR(dns *dnssim.Server, cfg netsim.Config) Source {
	return newDNSSource(AXFR, dns, cfg, func(v dnssim.Vis) bool { return v.Has(dnssim.VisAXFR) })
}

func newDNSSource(name string, dns *dnssim.Server, cfg netsim.Config, sees func(dnssim.Vis) bool) Source {
	n := 0
	for i := 0; i < dns.Len(); i++ {
		if sees(dns.Vis(i)) {
			n++
		}
	}
	s := &dnsSource{
		name:     name,
		dns:      dns,
		idx:      make([]int32, 0, n),
		epochs:   make([]int16, 0, n),
		reported: reported{perDay: cfg.EpochDays},
	}
	for i := 0; i < dns.Len(); i++ {
		if sees(dns.Vis(i)) {
			s.idx = append(s.idx, int32(i))
			s.epochs = append(s.epochs, int16(firstEpoch(dns.Key(i), name, cfg.Epochs)))
		}
	}
	return s
}

// bitnodesSource returns current Bitcoin peers (client addresses). It
// keeps parallel columns of just the two host fields Collect reads —
// address and death day — instead of retaining full Host records for the
// world's lifetime.
type bitnodesSource struct {
	addrs  []ip6.Addr
	death  []int16 // DeathDay per peer (-1: beyond horizon)
	epochs []int16 // firstEpoch per peer, precomputed at construction
	reported
}

// NewBitnodes builds the Bitnodes API source.
func NewBitnodes(world *netsim.Internet) Source {
	cfg := world.Config()
	hosts := world.Hosts(netsim.ClassBitnode)
	s := &bitnodesSource{
		addrs:    make([]ip6.Addr, 0, len(hosts)),
		death:    make([]int16, 0, len(hosts)),
		epochs:   make([]int16, 0, len(hosts)),
		reported: reported{perDay: cfg.EpochDays},
	}
	for _, h := range hosts {
		s.addrs = append(s.addrs, h.Addr)
		s.death = append(s.death, h.DeathDay)
		s.epochs = append(s.epochs, int16(addrEpoch(h.Addr, BIT, cfg.Epochs)))
	}
	return s
}

func (s *bitnodesSource) Name() string { return BIT }

func (s *bitnodesSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	from, to := s.window(day)
	var out []ip6.Addr
	for i, e := range s.epochs {
		if e < from || e > to {
			continue
		}
		// The API only lists currently connected peers. A peer that is
		// gone on the first day it would be listed is never listed.
		if s.death[i] >= 0 && day >= int(s.death[i]) {
			continue
		}
		out = append(out, s.addrs[i])
	}
	return out
}

// atlasSource returns RIPE Atlas probe addresses and ipmap data. Like
// bitnodesSource it retains only the address column.
type atlasSource struct {
	addrs  []ip6.Addr
	epochs []int16 // firstEpoch per address, precomputed at construction
	reported
}

// NewAtlas builds the RIPE Atlas source (probes + traceroute/ipmap data).
func NewAtlas(world *netsim.Internet) Source {
	cfg := world.Config()
	hosts := world.Hosts(netsim.ClassAtlas)
	// Atlas's built-in traceroutes also surface some core routers.
	routers := world.Hosts(netsim.ClassRouter)
	for _, r := range routers {
		if r.Addr.Hash64()%10 < 3 {
			hosts = append(hosts, r)
		}
	}
	s := &atlasSource{
		addrs:    make([]ip6.Addr, 0, len(hosts)),
		epochs:   make([]int16, 0, len(hosts)),
		reported: reported{perDay: cfg.EpochDays},
	}
	for _, h := range hosts {
		s.addrs = append(s.addrs, h.Addr)
		s.epochs = append(s.epochs, int16(addrEpoch(h.Addr, RA, cfg.Epochs)))
	}
	return s
}

func (s *atlasSource) Name() string { return RA }

func (s *atlasSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	from, to := s.window(day)
	var out []ip6.Addr
	for i, e := range s.epochs {
		if e >= from && e <= to {
			out = append(out, s.addrs[i])
		}
	}
	return out
}

// scamperSource traceroutes all known targets and harvests router hops.
//
// The paper traceroutes every known address daily. Which routers a path
// crosses is fixed per target (netsim.HopRefs), so each target is
// classified and its hop references recorded once, when it first
// appears on the hitlist; a collection day then resolves every
// referenced router once — whether it answers is a weekly draw — and
// re-derives only the CPE hops, which move as subscriber lines
// renumber. Paths into datacenter space repeat the same few
// transit/core hops for thousands of targets, so tracing a
// deterministic 1-in-16 sample there loses no router addresses in
// practice; subscriber space is always traced in full because each
// target can reveal a distinct CPE hop (performance substitution, see
// DESIGN.md).
type scamperSource struct {
	world *netsim.Internet

	// What the instance knows about the hitlist it serves. The set's
	// shard columns are append-only, so a per-shard cursor separates the
	// targets already traced from the new ones.
	set     *ip6.ShardSet
	cursor  [ip6.NumShards]int
	refs    hopRefSet
	emitted []ip6.Addr // every address returned so far, ascending
}

// hopRefSet is the union of the hop references of a set of traced
// targets.
type hopRefSet struct {
	transit []uint64    // bitset over tier-1 router indices
	core    []uint8     // per network: bitmask of core-router slots
	subs    []subTarget // the targets in subscriber space
}

// subTarget is a traced target whose last hop is a line's CPE.
type subTarget struct {
	addr ip6.Addr
	pool int32
}

func newHopRefSet(world *netsim.Internet) hopRefSet {
	transit, nets := world.TopologySize()
	return hopRefSet{transit: make([]uint64, (transit+63)/64), core: make([]uint8, nets)}
}

// merge ORs o into r.
func (r *hopRefSet) merge(o hopRefSet) {
	for i, w := range o.transit {
		r.transit[i] |= w
	}
	for i, m := range o.core {
		r.core[i] |= m
	}
	r.subs = append(r.subs, o.subs...)
}

// NewScamper builds the traceroute source.
func NewScamper(world *netsim.Internet) Source {
	return &scamperSource{world: world}
}

func (s *scamperSource) Name() string { return Scamper }

func (s *scamperSource) Collect(day int, hitlist *ip6.ShardSet) []ip6.Addr {
	if hitlist == nil {
		return nil
	}
	if hitlist != s.set {
		*s = scamperSource{world: s.world, set: hitlist, refs: newHopRefSet(s.world)}
	}
	workers := hitlist.Workers()

	// New targets: one partial reference set per chunk of shards.
	shards := hitlist.Shards()
	parts := make([]hopRefSet, workers)
	par.Ranges(ip6.NumShards, workers, 1, 1, func(c, lo, hi int) {
		parts[c] = newHopRefSet(s.world)
		for si := lo; si < hi; si++ {
			s.traceTargets(shards[si][s.cursor[si]:], &parts[c])
			s.cursor[si] = len(shards[si])
		}
	})
	for _, p := range parts {
		s.refs.merge(p)
	}

	// Today's hops: every referenced router, every subscriber target's CPE.
	found := s.routerHops(day)
	cpes := make([][]ip6.Addr, workers)
	par.Ranges(len(s.refs.subs), workers, 2048, 1, func(c, lo, hi int) {
		cpes[c] = s.cpeHops(s.refs.subs[lo:hi], day)
	})
	for _, c := range cpes {
		found = append(found, c...)
	}
	slices.SortFunc(found, ip6.Addr.Compare)
	return s.emit(slices.Compact(found))
}

// traced reports whether scamper traceroutes target a: everything in
// subscriber space, a 1-in-16 sample elsewhere.
func (s *scamperSource) traced(a ip6.Addr) bool {
	return a.Hash64()%16 == 0 || s.world.InSubscriberSpace(a)
}

// traceTargets classifies targets and ORs the hop references of the
// traced ones into refs.
func (s *scamperSource) traceTargets(targets []ip6.Addr, refs *hopRefSet) {
	for _, a := range targets {
		if !s.traced(a) {
			continue
		}
		r := s.world.HopRefs(a)
		for _, i := range r.Transit[:r.NTransit] {
			refs.transit[i/64] |= 1 << (i % 64)
		}
		for _, slot := range r.Core[:r.NCore] {
			refs.core[r.Net] |= 1 << slot
		}
		if r.Pool >= 0 {
			refs.subs = append(refs.subs, subTarget{addr: a, pool: r.Pool})
		}
	}
}

// routerHops resolves every referenced transit and core router for the
// given day.
func (s *scamperSource) routerHops(day int) []ip6.Addr {
	var out []ip6.Addr
	for w, word := range s.refs.transit {
		for ; word != 0; word &= word - 1 {
			if h, ok := s.world.TransitHop(int32(w*64 + bits.TrailingZeros64(word))); ok {
				out = append(out, h.Addr)
			}
		}
	}
	for net, mask := range s.refs.core {
		for ; mask != 0; mask &= mask - 1 {
			if h, ok := s.world.CoreHop(int32(net), uint8(bits.TrailingZeros8(mask)), day); ok {
				out = append(out, h.Addr)
			}
		}
	}
	return out
}

// cpeHops returns the CPE hop in front of each subscriber target on the
// given day.
func (s *scamperSource) cpeHops(subs []subTarget, day int) []ip6.Addr {
	out := make([]ip6.Addr, 0, len(subs))
	for _, t := range subs {
		if h, ok := s.world.CPEHop(t.pool, t.addr, day); ok {
			out = append(out, h.Addr)
		}
	}
	return out
}

// emit returns the addresses of found (ascending, distinct) that no
// earlier call returned, and records them as returned.
func (s *scamperSource) emit(found []ip6.Addr) []ip6.Addr {
	merged := make([]ip6.Addr, 0, len(s.emitted)+len(found))
	fresh := found[:0]
	old := s.emitted
	for _, a := range found {
		for len(old) > 0 && old[0].Less(a) {
			merged, old = append(merged, old[0]), old[1:]
		}
		if len(old) > 0 && old[0] == a {
			continue // merged takes it from old
		}
		fresh = append(fresh, a)
		merged = append(merged, a)
	}
	s.emitted = append(merged, old...)
	return fresh
}

// Store accumulates source output over collection epochs: addresses stay
// on the hitlist indefinitely (§3: "IP addresses will stay indefinitely
// in our scanning list"). All address sets are hash-sharded columnar
// ShardSets — the hitlist data plane — so per-day dedup, sorted-view
// construction and attribution fan out over shards.
type Store struct {
	sources  []Source
	workers  int
	perSrc   map[string]*ip6.ShardSet // all addresses a source ever produced
	newCount map[string]int           // addresses first contributed by a source
	all      *ip6.ShardSet
	runup    []RunupPoint
}

// RunupPoint is one epoch snapshot of cumulative source sizes (Fig. 1a).
type RunupPoint struct {
	Day        int
	Cumulative map[string]int // per source: len(perSrc)
	Total      int
}

// NewStoreWorkers creates a store over the given sources (order =
// priority for "new address" attribution, mirroring Table 2's source
// order) with an explicit data-plane worker count (<= 0 selects
// GOMAXPROCS). Purely a throughput knob: store contents, statistics and
// iteration order are identical for every value.
func NewStoreWorkers(workers int, srcs ...Source) *Store {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &Store{
		sources:  srcs,
		workers:  workers,
		perSrc:   map[string]*ip6.ShardSet{},
		newCount: map[string]int{},
		all:      ip6.NewShardSetWorkers(4096, workers),
	}
	for _, s := range srcs {
		st.perSrc[s.Name()] = ip6.NewShardSetWorkers(1024, workers)
	}
	return st
}

// CollectDay runs every source for one collection day and accumulates.
// Sources run in priority order (new-address attribution depends on it);
// within a source, per-set dedup fans out over shards. Days must ascend:
// each source reports only what it has not reported to this store before
// (see Source), so a day's work is proportional to what became visible
// since the previous call, and the sets, NewCount and Runup come out as
// if every source had re-reported everything it sees.
//
// New-address attribution is a counter, not a set: an address new to the
// accumulated hitlist can never become new again (the hitlist is
// append-only), so the per-source "first contributed" tally needs only
// AddSlice's new-count — the old per-source ShardSet retained a second
// full copy of columns and membership map per source for a number that
// Table 2 reads once.
func (st *Store) CollectDay(day int) {
	for _, s := range st.sources {
		addrs := s.Collect(day, st.all)
		st.perSrc[s.Name()].AddSlice(addrs)
		st.newCount[s.Name()] += st.all.AddSlice(addrs)
	}
	pt := RunupPoint{Day: day, Cumulative: map[string]int{}, Total: st.all.Len()}
	for name, set := range st.perSrc {
		pt.Cumulative[name] = set.Len()
	}
	st.runup = append(st.runup, pt)
}

// All returns the accumulated hitlist.
func (st *Store) All() *ip6.ShardSet { return st.all }

// PerSource returns a source's accumulated address set.
func (st *Store) PerSource(name string) *ip6.ShardSet { return st.perSrc[name] }

// NewCount returns how many addresses the source was the first to
// contribute (Table 2's "new" column).
func (st *Store) NewCount(name string) int { return st.newCount[name] }

// Runup returns the epoch snapshots.
func (st *Store) Runup() []RunupPoint { return st.runup }

// Compact clips the append slack off the accumulated hitlist's and every
// per-source set's insertion columns (see ip6.ShardSet.Compact) once the
// collection epochs finish. Only capacity changes: a later CollectDay
// appends and indexes exactly as before.
func (st *Store) Compact() {
	st.all.Compact()
	for _, set := range st.perSrc {
		set.Compact()
	}
}

// MemBytes reports the store's resident footprint: the accumulated
// hitlist and the per-source sets, with their membership indexes' share
// broken out.
func (st *Store) MemBytes() (total, index int64) {
	t, ix, _, _ := st.all.MemBytes()
	total, index = t, ix
	for _, set := range st.perSrc {
		t, ix, _, _ = set.MemBytes()
		total += t
		index += ix
	}
	return total, index
}

// SourceStat is one row of Table 2.
type SourceStat struct {
	Name     string
	IPs      int
	NewIPs   int
	ASes     int
	Prefixes int
	// TopAS are the top-3 AS shares of the source's addresses.
	TopAS []ASShare
}

// ASShare is an AS with its share of a source's addresses.
type ASShare struct {
	ASN   bgp.ASN
	Name  string
	Share float64
}

// stat fills a Table 2 row's attribution columns from the set's tally.
// The hash shards are not address-sorted, so this is the attribution
// kernel's search-per-address case; shards resolve one after another,
// each chunk-parallel.
func (st *Store) stat(row SourceStat, set *ip6.ShardSet, table *bgp.Table) SourceStat {
	tally := table.Tally(st.workers, set.Shards()...)
	row.ASes = tally.ASes()
	row.Prefixes = tally.Prefixes()
	for _, e := range tally.TopAS(3) {
		row.TopAS = append(row.TopAS, ASShare{
			ASN:   e.ASN,
			Name:  table.AS(e.ASN).Name,
			Share: float64(e.Count) / float64(set.Len()),
		})
	}
	return row
}

// Stats computes Table 2 for the current store contents.
func (st *Store) Stats(table *bgp.Table) []SourceStat {
	var out []SourceStat
	for _, s := range st.sources {
		set := st.perSrc[s.Name()]
		row := SourceStat{Name: s.Name(), IPs: set.Len(), NewIPs: st.newCount[s.Name()]}
		out = append(out, st.stat(row, set, table))
	}
	return out
}

// TotalStat computes the "Total" row of Table 2.
func (st *Store) TotalStat(table *bgp.Table) SourceStat {
	return st.stat(SourceStat{Name: "Total", IPs: st.all.Len(), NewIPs: st.all.Len()}, st.all, table)
}
