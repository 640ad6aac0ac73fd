package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// Naive oracles for the one resolver (resolve.go). The trie-walking
// per-probe resolution and the per-target announcement scan were
// production code until the interval tables became the sealed world's
// only resolver; they live on here, next to brute-force linear scans of
// the enumeration API, as what the tables are pinned against.

// refTries are the bit tries the world used to fill at construction time,
// rebuilt from the sealed region and network columns in the same
// insertion order (a later duplicate prefix replaces an earlier one).
type refTries struct {
	alias, nets ip6.Trie[int32]
}

func buildRefTries(in *Internet) *refTries {
	rt := &refTries{}
	for i := range in.regions {
		rt.alias.Insert(in.regions[i].Prefix, int32(i))
	}
	for i := range in.nets {
		rt.nets.Insert(in.nets[i].prefix, int32(i))
	}
	return rt
}

func (rt *refTries) networkOf(addr ip6.Addr) int32 {
	_, ni, ok := rt.nets.Lookup(addr)
	if !ok {
		return -1
	}
	return ni
}

// probeRef is the retired trie-walking Probe body, verbatim but for
// reading its tries from rt and handing answer the owner it found: one
// LPM walk per structure per probe.
func (in *Internet) probeRef(rt *refTries, dst ip6.Addr, p wire.Proto, day int, at wire.Time) wire.Response {
	var raw rawResponse
	// 1. Aliased regions (including their special-behaviour quirks).
	if _, ri, ok := rt.alias.Lookup(dst); ok {
		if r := &in.regions[ri]; r.Hole.IsZero() || !r.Hole.Contains(dst) {
			in.answer(&owner{kind: ownerAlias, id: ri, dst: dst}, p, day, at, lossHalf(day, p), &raw)
			return in.materialize(&raw, day, at)
		}
	}
	// 2. Finite hosts: binary search on the sorted host column.
	if i, ok := in.hc.findRef(dst); ok {
		in.answer(&owner{kind: ownerHost, id: i, net: rt.networkOf(dst), dst: dst}, p, day, at, lossHalf(day, p), &raw)
		return in.materialize(&raw, day, at)
	}
	// 3. Functional populations: rotating subscriber lines. Pools hang
	// off the operator's covering announcement, so resolve with the
	// SHORTEST match (more-specific announcements may overlap the pool).
	if _, ni, ok := rt.nets.LookupShortest(dst); ok && in.nets[ni].isp >= 0 {
		in.probeLineRef(ni, dst, p, day, at, &raw)
		return in.materialize(&raw, day, at)
	}
	return wire.Response{}
}

// probeLineRef is the head of the retired per-probe line answer: the
// pool's lineAt paid per probe, where locate now pays it once per destination and day.
func (in *Internet) probeLineRef(ni int32, dst ip6.Addr, p wire.Proto, day int, at wire.Time, raw *rawResponse) {
	if line, member, ok := in.isps[in.nets[ni].isp].lineAt(dst, day); ok {
		in.answer(&owner{kind: ownerLine, member: member, id: ni, line: line, dst: dst}, p, day, at, lossHalf(day, p), raw)
	}
}

// resolveRef is the retired one-protocol resolve, verbatim but for the
// owner it hands answer: every probe finds its
// destination's owner for itself, over the caller's run cursors, where
// locate now finds it once for all of a destination's lanes.
func (in *Internet) resolveRef(c *cursors, dst ip6.Addr, p wire.Proto, day int, at wire.Time) (raw rawResponse) {
	if ri, ok := c.alias.Lookup(dst); ok {
		if r := &in.regions[ri]; r.Hole.IsZero() || !r.Hole.Contains(dst) {
			in.answer(&owner{kind: ownerAlias, id: ri, dst: dst}, p, day, at, lossHalf(day, p), &raw)
			return raw
		}
	}
	if hi, ok := c.hosts.lookup(dst); ok {
		nwi, ok := c.nets.Lookup(dst)
		if !ok {
			nwi = -1
		}
		in.answer(&owner{kind: ownerHost, id: hi, net: nwi, dst: dst}, p, day, at, lossHalf(day, p), &raw)
		return raw
	}
	if ni, ok := c.pools.Lookup(dst); ok && in.nets[ni].isp >= 0 {
		in.probeLineRef(ni, dst, p, day, at, &raw)
	}
	return raw
}

// probeBatchRef is the retired one-protocol ProbeBatch body over
// resolveRef: one set of cursors per batch and protocol.
func (in *Internet) probeBatchRef(dsts []ip6.Addr, p wire.Proto, day int, at []wire.Time, out *wire.ResultColumns, base int) {
	c := in.cursors()
	for k, dst := range dsts {
		raw := in.resolveRef(&c, dst, p, day, at[k])
		in.emit(out, base+k, &raw, day, at[k])
	}
}

// coveringRouterSubnetScan is the retired per-target form of the
// network.routerSub column: a linear scan of every announcement for the
// first same-AS one of length <= 36 overlapping nw.
func coveringRouterSubnetScan(in *Internet, nw *network) ip6.Prefix {
	if nw.prefix.Bits() <= 36 {
		return nw.prefix.Subprefix(64, 0xffff)
	}
	// Find a shorter covering announcement of the same AS.
	for i := range in.nets {
		cand := &in.nets[i]
		if cand.asn == nw.asn && cand.prefix.Bits() <= 36 && cand.prefix.Overlaps(nw.prefix) {
			return cand.prefix.Subprefix(64, 0xffff)
		}
	}
	return ip6.Prefix{}
}

// newMachineRef is the retired derivation of a machine profile, verbatim:
// a full math/rand generator seeded per key, the unpacked struct filled
// field by field from per-call value and weight slices. It is what the
// packed profile (newProfile, lazily seeded) must reproduce bit for bit.
func newMachineRef(key uint64) machine {
	rng := rand.New(rand.NewSource(int64(key)))
	m := machine{key: key}
	m.iTTL = pickWeightedRef(rng, []uint8{64, 255, 128, 32}, []float64{0.72, 0.17, 0.10, 0.01})
	m.layout = uint8(weightedIdxRef(rng, []float64{0.995, 0.002, 0.0015, 0.001, 0.0005}))
	m.mss = []uint16{1440, 1460, 1380, 8940}[weightedIdxRef(rng, []float64{0.55, 0.35, 0.07, 0.03})]
	m.wscale = []uint8{7, 8, 9, 5, 2}[weightedIdxRef(rng, []float64{0.5, 0.2, 0.15, 0.1, 0.05})]
	m.wsize = []uint16{28800, 65535, 64240, 14600, 29200}[weightedIdxRef(rng, []float64{0.35, 0.25, 0.2, 0.1, 0.1})]
	switch weightedIdxRef(rng, []float64{0.52, 0.36, 0.04, 0.08}) {
	case 0:
		m.tsMode = tsMonotonic
	case 1:
		m.tsMode = tsPerTuple
	case 2:
		m.tsMode = tsConstant
	default:
		m.tsMode = tsNone
	}
	m.tsBase = rng.Uint32()
	m.tsHz = []uint32{1000, 250, 100}[weightedIdxRef(rng, []float64{0.6, 0.25, 0.15})]
	return m
}

func pickWeightedRef[T any](rng *rand.Rand, vals []T, w []float64) T {
	return vals[weightedIdxRef(rng, w)]
}

func weightedIdxRef(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for i, x := range w {
		r -= x
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}

// newMachine is the production derivation in the oracle's terms: the
// packed profile of a key, unpacked.
func newMachine(key uint64) machine { return deriveMachine(key).unpack() }

// TestProfilesMatchRef pins the packed profiles against newMachineRef:
// on demand over 10⁵ keys (the subscriber-line path), and as sealed —
// the profile column entry of every host and both profile words of every
// alias region, in every reference world. It also checks the keys reached
// every value of every profile table, so no packed field goes untested.
func TestProfilesMatchRef(t *testing.T) {
	seen := map[any]bool{}
	check := func(what string, got machine) {
		t.Helper()
		want := newMachineRef(got.key)
		if got != want {
			t.Fatalf("%s: key %#x unpacks to %+v, math/rand derivation %+v", what, got.key, got, want)
		}
		for _, v := range []any{want.iTTL, [2]any{"layout", want.layout}, want.mss, [2]any{"wscale", want.wscale}, want.wsize, want.tsMode, want.tsHz} {
			seen[v] = true
		}
	}
	for i := uint64(0); i < 100_000; i++ {
		key := i
		if i >= 1000 {
			key = hash64.Mix(i)
		}
		check("on demand", newMachine(key))
	}
	want := len(ittlValues) + len(wire.OptionLayouts) + len(mssValues) + len(wscaleValues) + len(wsizeValues) + len(tsModes) + len(tsHzValues)
	if len(seen) != want {
		t.Fatalf("keys reached %d distinct profile values, tables hold %d", len(seen), want)
	}

	worlds := []*Internet{world}
	for _, cfg := range refConfigs()[1:] {
		worlds = append(worlds, New(cfg))
	}
	for _, in := range worlds {
		if len(in.hc.profile) != in.hc.n() || in.hc.n() == 0 {
			t.Fatalf("profile column holds %d entries for %d hosts", len(in.hc.profile), in.hc.n())
		}
		for i, key := range in.hc.machine {
			check("host column", machineRef{in.hc.profile[i], key}.unpack())
		}
		for i := range in.regions {
			r := in.regions[i]
			check("region", machineRef{r.prof, r.Machine}.unpack())
			check("region proxy backend", machineRef{r.mixProf, r.mixMachine()}.unpack())
			// quirkedMachine hands out exactly these two: the backend for
			// every seventh destination of a proxy-mix region (forced on a
			// copy here — few regions draw the quirk), the machine otherwise.
			for _, quirks := range []AliasQuirk{r.Quirks &^ QuirkProxyMix, r.Quirks | QuirkProxyMix} {
				r.Quirks = quirks
				for dstKey := uint64(0); dstKey < 14; dstKey++ {
					want := machineRef{r.prof, r.Machine}
					if quirks&QuirkProxyMix != 0 && dstKey%7 == 0 {
						want = machineRef{r.mixProf, hash64.Mix(r.Machine ^ 0xbac0e4d)}
					}
					if got := r.quirkedMachine(dstKey); got != want {
						t.Fatalf("region %d quirks %#x dst %d: machine %+v, want %+v", i, quirks, dstKey, got, want)
					}
				}
			}
		}
	}
}

// TestProbeMatchesRef pins Probe — locate and answer over fresh cursors — against
// the trie-walking oracle per target: all five protocols, two days, the
// whole response including the SYN-ACK fingerprint and timestamp value.
func TestProbeMatchesRef(t *testing.T) {
	rt := buildRefTries(world)
	targets := batchTargets(world, rand.New(rand.NewSource(0x9e0be)))
	for _, day := range []int{0, 9} {
		for _, proto := range wire.Protos {
			for i, dst := range targets {
				at := wire.Time(i) * 10
				got := world.Probe(dst, proto, day, at)
				want := world.probeRef(rt, dst, proto, day, at)
				if got.OK != want.OK || got.HopLimit != want.HopLimit || (got.TCP == nil) != (want.TCP == nil) {
					t.Fatalf("day %d %v target %d (%v): %+v, oracle says %+v", day, proto, i, dst, got, want)
				}
				if got.TCP != nil && *got.TCP != *want.TCP {
					t.Fatalf("day %d %v target %d (%v): fingerprint %+v, oracle says %+v", day, proto, i, dst, *got.TCP, *want.TCP)
				}
			}
		}
	}
}

// TestResolversMatchBruteForce pins the point readers of the interval
// tables — GroundTruthAliased, InSubscriberSpace, networkOf — against
// linear scans of AliasedRegions() and Networks(), over the batch target
// mix plus every region's and hole's boundary addresses, and checks the
// mix really reached the interesting cases.
func TestResolversMatchBruteForce(t *testing.T) {
	regions := world.AliasedRegions()
	nets := world.Networks()
	addrs := batchTargets(world, rand.New(rand.NewSource(0x17ab)))
	for _, r := range regions {
		for _, p := range []ip6.Prefix{r.Prefix, r.Hole} {
			if !p.IsZero() {
				addrs = append(addrs, p.Addr(), p.Addr().Prev(), p.Last(), p.Last().Next())
			}
		}
	}
	var nested, outermost, holes, synProxy int
	for _, a := range addrs {
		// Most specific region; the last of equal prefixes wins.
		region, covering := -1, 0
		for i, r := range regions {
			if r.Prefix.Contains(a) {
				covering++
				if region < 0 || r.Prefix.Bits() >= regions[region].Prefix.Bits() {
					region = i
				}
			}
		}
		wantAliased := region >= 0
		if wantAliased {
			r := regions[region]
			if covering > 1 {
				nested++
			}
			if r.Quirks&QuirkSYNProxy != 0 {
				synProxy++
				wantAliased = false
			}
			if !r.Hole.IsZero() && r.Hole.Contains(a) {
				holes++
				wantAliased = false
			}
		}
		if got := world.GroundTruthAliased(a); got != wantAliased {
			t.Fatalf("GroundTruthAliased(%v) = %v, scan of AliasedRegions says %v", a, got, wantAliased)
		}

		// Most specific and outermost announcement.
		longest, shortest := -1, -1
		for i, nw := range nets {
			if nw.Prefix.Contains(a) {
				if longest < 0 || nw.Prefix.Bits() >= nets[longest].Prefix.Bits() {
					longest = i
				}
				if shortest < 0 || nw.Prefix.Bits() < nets[shortest].Prefix.Bits() {
					shortest = i
				}
			}
		}
		if longest != shortest {
			outermost++
		}
		if got := world.networkOf(a); got != int32(longest) {
			t.Fatalf("networkOf(%v) = %d, scan of Networks says %d", a, got, longest)
		}
		wantSub := shortest >= 0 && nets[shortest].IsISP
		if got := world.InSubscriberSpace(a); got != wantSub {
			t.Fatalf("InSubscriberSpace(%v) = %v, scan of Networks says %v", a, got, wantSub)
		}
	}
	if nested == 0 || outermost == 0 || holes == 0 || synProxy == 0 {
		t.Fatalf("address mix missed a case: nested regions %d, nested announcements %d, holes %d, SYN proxy %d",
			nested, outermost, holes, synProxy)
	}
}

// TestRouterSubnetColumnMatchesScan pins the plan-time routerSub column
// against the per-target announcement scan for every network.
func TestRouterSubnetColumnMatchesScan(t *testing.T) {
	worlds := []*Internet{world}
	for _, cfg := range refConfigs()[1:] {
		worlds = append(worlds, New(cfg))
	}
	for wi, in := range worlds {
		borrowed := 0
		for i := range in.nets {
			nw := &in.nets[i]
			if got, want := nw.routerSub, coveringRouterSubnetScan(in, nw); got != want {
				t.Fatalf("world %d net %d (%v): routerSub %v, scan says %v", wi, i, nw.prefix, got, want)
			}
			if nw.prefix.Bits() > 36 && !nw.routerSub.IsZero() {
				borrowed++
			}
		}
		if borrowed == 0 {
			t.Fatalf("world %d: no long announcement borrows a router subnet", wi)
		}
	}
}

// TestNetsTableIsRoutingTables pins the table the world shares with
// bgp.Table against the compile it replaced — the longest-match
// flattening of the network column itself — row for row, in every
// reference world: a net ID is an announcement ID.
func TestNetsTableIsRoutingTables(t *testing.T) {
	worlds := []*Internet{world}
	for _, cfg := range refConfigs()[1:] {
		worlds = append(worlds, New(cfg))
	}
	for wi, in := range worlds {
		// The column is (address, length)-sorted and unique — what
		// CompileIntervals insists on — so its flattening needs no dedupe.
		prefixes := make([]ip6.Prefix, len(in.nets))
		ids := make([]int32, len(in.nets))
		for i := range in.nets {
			prefixes[i], ids[i] = in.nets[i].prefix, int32(i)
		}
		want := ip6.CompileIntervals(prefixes, ids)
		got := in.tabs.nets
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("world %d: %d rows from the routing table, %d compiled from the network column", wi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("world %d row %d: %+v from the routing table, %+v compiled from the network column", wi, i, got[i], want[i])
			}
		}
	}
}

// fuzzAddr spreads two bytes over an address so that prefixes of every
// length up to /128 differ and nest.
func fuzzAddr(b0, b1 byte) ip6.Addr {
	const ones = 0x0101010101010101
	return ip6.AddrFromUint64(uint64(b0)*ones, uint64(b1)*ones)
}

// FuzzIvalRun drives one interval-run cursor over compileAlias's table of
// a fuzzed region set — nested, unsorted, with duplicated prefixes —
// through an arbitrary, boundary-heavy query sequence: at every step the
// cursor, a fresh ip6.LookupInterval binary search and a brute-force
// longest match in which the last of equal prefixes wins must agree. It
// is what holds compileAlias's sort and last-wins dedupe to a trie's
// replacing Insert (the cursor itself is fuzzed in ip6). Input layout: a
// prefix count, three bytes per prefix (address pattern, length), then
// three bytes per query (prefix to aim at, which of its edges, jitter).
func FuzzIvalRun(f *testing.F) {
	f.Add([]byte{})
	// ::/0 and its wrap-around edges.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0})
	// A gap, then the first address of the interval that ends it.
	f.Add([]byte{1, 0x30, 0x30, 48, 0, 2, 0, 0, 0, 0})
	// A duplicated /32 around a /48, queried out of order.
	f.Add([]byte{3, 0x20, 0x01, 32, 0x20, 0x01, 48, 0x20, 0x01, 32,
		0, 0, 0, 1, 1, 0, 1, 3, 0, 0, 2, 0, 1, 4, 9, 2, 5, 77})
	// Both ends of the address space.
	f.Add([]byte{4, 0xff, 0xff, 128, 0xff, 0xff, 64, 0, 0, 128, 0x80, 0, 1,
		0, 3, 0, 2, 2, 0, 1, 1, 0, 3, 0, 0, 3, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 24
		data = data[1:]
		var prefixes []ip6.Prefix
		for ; len(prefixes) < n && len(data) >= 3; data = data[3:] {
			prefixes = append(prefixes, ip6.PrefixFrom(fuzzAddr(data[0], data[1]), int(data[2])%129))
		}
		if len(prefixes) == 0 {
			return
		}
		regions := make([]AliasRegion, len(prefixes))
		for i, p := range prefixes {
			regions[i].Prefix = p
		}
		tab := compileAlias(regions)
		cur := ip6.NewIntervalCursor(tab)
		for ; len(data) >= 3; data = data[3:] {
			p := prefixes[int(data[0])%len(prefixes)]
			var a ip6.Addr
			switch data[1] % 6 {
			case 0:
				a = p.Addr()
			case 1:
				a = p.Last()
			case 2:
				a = p.Addr().Prev()
			case 3:
				a = p.Last().Next()
			case 4:
				a = ip6.AddrFromUint64(p.Addr().Hi(), p.Addr().Lo()^uint64(data[2]))
			default:
				a = fuzzAddr(data[2], data[0])
			}
			want, wantOK := int32(-1), false
			for i, q := range prefixes {
				if q.Contains(a) && (!wantOK || q.Bits() >= prefixes[want].Bits()) {
					want, wantOK = int32(i), true
				}
			}
			got, gotOK := cur.Lookup(a)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("cursor(%v) = %d,%v; longest match over %v is %d,%v", a, got, gotOK, prefixes, want, wantOK)
			}
			got, gotOK = ip6.LookupInterval(tab, a)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("LookupInterval(%v) = %d,%v; longest match over %v is %d,%v", a, got, gotOK, prefixes, want, wantOK)
			}
		}
	})
}

// fuzzHostAddr maps two bytes to a host address: sixteen /64 groups — the
// bottom and the top of the address space among them — with up to 4096
// interface IDs each, so fuzzed columns hold dense counter-style blocks,
// wide gaps and both extremes.
func fuzzHostAddr(b0, b1 byte) ip6.Addr {
	lo := uint64(b0&15)<<8 | uint64(b1)
	switch g := uint64(b0 >> 4); g {
	case 0:
		return ip6.AddrFromUint64(0, lo)
	case 15:
		return ip6.AddrFromUint64(^uint64(0), ^lo)
	default:
		return ip6.AddrFromUint64(g<<60|g, lo)
	}
}

// findRef binary-searches the sorted host column for a: the oracles'
// point lookup, independent of hostRun and ip6.Search.
func (hc *hostCols) findRef(a ip6.Addr) (int32, bool) {
	i, ok := slices.BinarySearchFunc(hc.addr, a, ip6.Addr.Compare)
	return int32(i), ok
}

// FuzzHostRun drives one hostRun — the merge cursor locate leans on once
// per target — over a fuzzed host column through an arbitrary query
// sequence: forward, backward, repeated, into gaps, onto both ends of the
// address space and outside every group. At every step the cursor, a
// fresh cursor (HostAt's and Probe's one-query lookup) and a linear scan
// of the column must agree on (position, hit). Input layout: a host count, two bytes per
// host (fuzzHostAddr), then three bytes per query (host to aim at, how,
// jitter).
func FuzzHostRun(f *testing.F) {
	f.Add([]byte{})
	// An empty column: every query misses into the one whole-space gap.
	f.Add([]byte{0, 0, 5, 0, 0, 6, 0, 0, 0, 0})
	// A counter-style block longer than hostRunAdvance, walked forward
	// one host at a time, then jumped over, then walked backward.
	f.Add([]byte{12, 0x20, 1, 0x20, 2, 0x20, 3, 0x20, 4, 0x20, 5, 0x20, 6, 0x20, 7, 0x20, 8, 0x20, 9, 0x20, 10, 0x20, 11, 0x20, 40,
		0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 11, 0, 0, 10, 2, 0, 3, 0, 0, 3, 4, 0, 0, 2, 0})
	// Hosts at both ends of the space, queried top, bottom, top.
	f.Add([]byte{3, 0x00, 0, 0xf0, 0, 0x80, 7, 0, 6, 0, 0, 5, 0, 1, 0, 0, 0, 1, 0, 2, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 64
		data = data[1:]
		var addrs []ip6.Addr
		for ; len(addrs) < n && len(data) >= 2; data = data[2:] {
			addrs = append(addrs, fuzzHostAddr(data[0], data[1]))
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		var hc hostCols
		for i, a := range addrs {
			if i == 0 || a != addrs[i-1] {
				hc.addr = append(hc.addr, a)
			}
		}
		cur := hostRun{hc: &hc}
		var q ip6.Addr
		for ; len(data) >= 3; data = data[3:] {
			aim := fuzzHostAddr(data[0], data[2])
			if hc.n() > 0 {
				aim = hc.addr[int(data[0])%hc.n()]
			}
			switch data[1] % 8 {
			case 0:
				q = aim
			case 1:
				q = aim.Next()
			case 2:
				q = aim.Prev()
			case 3:
				q = ip6.AddrFromUint64(aim.Hi(), aim.Lo()^uint64(data[2]))
			case 4: // the previous query again
			case 5:
				q = ip6.Addr{}
			case 6:
				q = ip6.MaxAddr()
			default:
				q = ip6.AddrFromUint64(uint64(data[2])<<56|uint64(data[0]), uint64(data[2]))
			}
			want, wantOK := int32(0), false
			for i := int32(0); i < int32(hc.n()); i++ {
				if hc.addr[i] == q {
					want, wantOK = i, true
				}
			}
			if got, ok := cur.lookup(q); got != want || ok != wantOK {
				t.Fatalf("cursor(%v) = %d,%v; a scan of %d hosts says %d,%v", q, got, ok, hc.n(), want, wantOK)
			}
			fresh := hostRun{hc: &hc}
			if got, ok := fresh.lookup(q); got != want || ok != wantOK {
				t.Fatalf("fresh cursor(%v) = %d,%v; a scan of %d hosts says %d,%v", q, got, ok, hc.n(), want, wantOK)
			}
		}
	})
}

// traceroutePathRef is the retired hop-by-hop TraceroutePath body,
// verbatim: it resolves every hop as it walks the path, where
// TraceroutePath now resolves the references HopRefs returns.
func (in *Internet) traceroutePathRef(dst ip6.Addr, day int) []Hop {
	var path []Hop
	dk := hashAddr(in.key^0x7e4ace, dst)

	nwi := in.networkOf(dst)
	var asn bgp.ASN
	if nwi >= 0 {
		asn = in.nets[nwi].asn
	}

	tk := hash3(in.key^0x7e4a, uint64(asn), dk%4)
	nTransit := 2 + int(tk%2)
	for i := 0; i < nTransit && len(in.tier1) > 0; i++ {
		idx := hash3(tk, uint64(i), 0) % uint64(len(in.tier1))
		a := in.tier1[idx]
		if h, ok := in.HostAt(a); ok {
			path = append(path, Hop{Addr: a, ASN: h.ASN})
		}
	}

	if nwi < 0 {
		return path
	}
	nw := &in.nets[nwi]
	if sub := nw.routerSub; !sub.IsZero() {
		n := 1 + int(hash2(nw.key, dk%8)%3)
		for i := 0; i < n; i++ {
			a := ip6.AddrFromUint64(sub.Addr().Hi(), 1+hash3(nw.key, dk%4, uint64(i))%6)
			if h, ok := in.HostAt(a); ok {
				if !chance(hash3(in.key^0xa404, hashAddr(in.key, a), uint64(day/7)), 0.15) {
					path = append(path, Hop{Addr: a, ASN: h.ASN})
				}
			}
		}
	}
	if ni, ok := ip6.LookupInterval(in.tabs.pools, dst); ok && in.nets[ni].isp >= 0 {
		poolNw := &in.nets[ni]
		isp := &in.isps[poolNw.isp]
		if line, ok := isp.lineContaining(dst, day); ok {
			cpe := isp.cpeAddr(line, day)
			if cpe != dst {
				path = append(path, Hop{Addr: cpe, ASN: poolNw.asn})
			}
		}
	}
	return path
}

// TestTraceroutePathMatchesRef pins the reference-resolving
// TraceroutePath against the hop-by-hop walk, hop for hop — order,
// repeated transit routers and the nil path included — over hitlist-like,
// subscriber, unrouted and router-subnet destinations, on days either
// side of a weekly anonymity redraw and of line rotations, and checks
// the mix reached every kind of hop.
func TestTraceroutePathMatchesRef(t *testing.T) {
	for ci, cfg := range refConfigs() {
		in := world
		if ci > 0 {
			in = New(cfg)
		}
		dsts := batchTargets(in, rand.New(rand.NewSource(0x7ace)))
		for i := range in.nets {
			if sub := in.nets[i].routerSub; !sub.IsZero() {
				dsts = append(dsts, ip6.AddrFromUint64(sub.Addr().Hi(), 1+uint64(i%6)))
			}
		}
		var repeats, cores, silent, cpes, selfCPE, unrouted int
		for _, day := range []int{0, 6, 7, 62} {
			for _, lh := range in.LineHosts() {
				dsts = append(dsts, lh.Addr(day)) // NAS behind the CPE, or the CPE itself
			}
			for _, dst := range dsts {
				got, want := in.TraceroutePath(dst, day), in.traceroutePathRef(dst, day)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("config %d day %d: TraceroutePath(%v) = %v, hop-by-hop walk says %v", ci, day, dst, got, want)
				}
				r := in.HopRefs(dst)
				if r.NTransit >= 2 && r.Transit[0] == r.Transit[1] {
					repeats++
				}
				cores += int(r.NCore)
				for _, slot := range r.Core[:r.NCore] {
					if _, ok := in.CoreHop(r.Net, slot, day); !ok {
						silent++
					}
				}
				if r.Net < 0 {
					unrouted++
				}
				if r.Pool >= 0 {
					if _, ok := in.CPEHop(r.Pool, dst, day); ok {
						cpes++
					} else if line, ok := in.isps[in.nets[r.Pool].isp].lineContaining(dst, day); ok &&
						in.isps[in.nets[r.Pool].isp].cpeAddr(line, day) == dst {
						selfCPE++
					}
				}
			}
		}
		if repeats == 0 || cores == 0 || silent == 0 || cpes == 0 || selfCPE == 0 || unrouted == 0 {
			t.Fatalf("config %d: destination mix missed a case: repeated transit %d, core refs %d, silent or empty core slots %d, CPE hops %d, CPE destinations %d, unrouted %d",
				ci, repeats, cores, silent, cpes, selfCPE, unrouted)
		}
	}
}

// planBulkRef is the serial planner planBulk replaced, kept as the
// reference its two phases are pinned against: every network's farm,
// stale siblings and routers registered straight into a builder that
// grows from empty, domains numbered as they are planned. It returns how
// many of the farm and router insertions were duplicates, which the
// builder dropped, first insertion winning.
func (in *Internet) planBulkRef() (dups int) {
	anns := in.Table.Announcements()

	// Group announcements per AS so roles can be assigned per operator.
	byAS := map[bgp.ASN][]ip6.Prefix{}
	for _, a := range anns {
		byAS[a.Origin] = append(byAS[a.Origin], a.Prefix)
	}

	// Per-announcement network metadata: a flat, exactly-sized column.
	// The announcement count is final here, so net IDs (the values of the
	// seal-time interval tables) stay stable for the world's lifetime.
	in.nets = make([]network, 0, len(anns))
	for _, a := range anns {
		info := in.Table.AS(a.Origin)
		key := hash3(in.key, uint64(a.Origin), a.Prefix.Addr().Hi())
		nw := network{
			prefix:    a.Prefix,
			routerSub: routerSubnet(a.Prefix, byAS[a.Origin]),
			asn:       a.Origin,
			kind:      info.Kind,
			key:       key,
			pathLen:   uint8(3 + key%9),
			jitter:    chance(hash64.Mix(key^1), 0.28),
			loss:      0.004 + unit(hash64.Mix(key^2))*0.016,
			isp:       -1,
			// One operator, one addressing plan: all announcements of an
			// AS share a scheme (the homogeneity Fig. 3b observes).
			scheme: pickScheme(hash2(in.key, uint64(a.Origin))),
		}
		if chance(hash64.Mix(key^3), 0.03) {
			nw.loss = 0.08 + unit(hash64.Mix(key^4))*0.2 // high-loss networks (§5.2)
		}
		in.nets = append(in.nets, nw)
	}

	in.b = newWorldBuilder(0)
	domainID := uint32(1)
	nextDomain := func() uint32 { d := domainID; domainID++; return d }

	for i := range in.nets {
		nw := &in.nets[i]
		switch nw.kind {
		case bgp.KindISP:
			// Only the covering announcement carries the pool.
			if all := byAS[nw.asn]; len(all) > 0 && nw.prefix != all[0] {
				// Secondary announcements behave like small farms occasionally.
				if chance(hash64.Mix(nw.key^0x15b), 0.2) {
					dups += in.planFarmRef(nw, func() uint32 { return 0 })
				}
			} else {
				in.planISP(nw)
			}
		default:
			dups += in.planFarmRef(nw, nextDomain)
		}
		dups += in.planRoutersRef(nw)
	}
	dups -= len(in.b.arr) // offered minus kept

	in.planAliases(nextDomain)
	in.planAtlas()
	in.planBitnodes()
	in.planTier1()
	return dups
}

// planFarmRef is planFarm as planBulkRef calls it: it registers the farm
// and stale siblings itself and returns how many hosts it offered.
func (in *Internet) planFarmRef(nw *network, nextDomain func() uint32) (adds int) {
	rng := seededRand(nw.key)
	scale := in.cfg.Scale

	var median float64
	switch {
	case nw.asn == bgp.FindASN("Amazon"):
		median = 1200
	case nw.asn == bgp.FindASN("Akamai") || nw.asn == bgp.FindASN("Cloudflare"):
		median = 700
	case nw.asn == bgp.FindASN("Google") || nw.asn == bgp.FindASN("HDNet"):
		median = 400
	case nw.kind == bgp.KindHoster || nw.kind == bgp.KindCloud:
		median = 14
	case nw.kind == bgp.KindCDN:
		median = 40
	case nw.kind == bgp.KindInternetService:
		median = 18
	default: // academic, enterprise
		median = 8
	}
	// Only the first announcement of small operators hosts a farm; big
	// ones host on every /32 announcement but not on each tiny /48.
	if nw.prefix.Bits() > 40 && !chance(hash64.Mix(nw.key^7), 0.25) {
		return 0
	}
	n := int(float64(lognormalInt(rng, median, 0.9)) * scale)
	if n <= 0 {
		return 0
	}

	quicFlaky := nw.asn == bgp.FindASN("Akamai") || nw.asn == bgp.FindASN("HDNet")
	// A quarter of sizable pools are one machine with many bound
	// addresses (the §5.4 validation deep-dive population).
	cloned := n >= 16 && chance(hash64.Mix(nw.key^8), 0.25)
	clonedKey := hash2(nw.key, 0xc104ed)

	perSubnet := 200
	if nw.scheme == SchemeRandomFull {
		perSubnet = 30
	}
	for i := 0; i < n; i++ {
		subnet := farmSubnet(nw, uint64(i/perSubnet))
		addr := hostIID(nw, subnet, uint64(i%perSubnet))
		hk := hashAddr(nw.key, addr)

		serves := wire.RespMask(0)
		serves.Set(wire.ICMPv6)
		isDNS := chance(hash64.Mix(hk^1), dnsShare(nw.kind))
		if isDNS {
			serves.Set(wire.UDP53)
			if chance(hash64.Mix(hk^2), 0.14) {
				serves.Set(wire.TCP80)
			}
		} else {
			serves.Set(wire.TCP80)
			if chance(hash64.Mix(hk^3), 0.62) {
				serves.Set(wire.TCP443)
				if chance(hash64.Mix(hk^4), 0.30) || quicFlaky {
					serves.Set(wire.UDP443)
				}
			}
		}
		// A small share of hosts drop ICMP at the border.
		if chance(hash64.Mix(hk^5), 0.05) {
			m := serves
			m &^= 1 << wire.ICMPv6
			if m != 0 {
				serves = m
			}
		}
		mk := hash2(nw.key, uint64(i))
		if cloned {
			mk = clonedKey
		}
		class := ClassWebServer
		if isDNS {
			class = ClassDNSServer
		}
		in.b.add(Host{
			Addr:      addr,
			ASN:       nw.asn,
			Class:     class,
			Serves:    serves,
			Machine:   mk,
			DeathDay:  deathDay(hash64.Mix(hk^6), 0.0012, 3*in.Horizon()),
			QUICFlaky: quicFlaky,
			Domain:    nextDomain(),
		})
		adds++
	}
	// Stale siblings: the counter continued past the live range in old
	// DNS records; they resolve but do not respond.
	nStale := int(float64(n) * (1.0 + unit(hash64.Mix(nw.key^9))*1.5))
	for i := 0; i < nStale; i++ {
		subnet := farmSubnet(nw, uint64((n+i)/perSubnet))
		addr := hostIID(nw, subnet, uint64((n+i)%perSubnet))
		in.stale = append(in.stale, StaleRecord{Addr: addr, ASN: nw.asn, Domain: nextDomain()})
	}
	return adds
}

// planRoutersRef is planRouters as planBulkRef calls it, returning how
// many routers it offered.
func (in *Internet) planRoutersRef(nw *network) (adds int) {
	// Routers only on the covering announcement (not every /48).
	if nw.prefix.Bits() > 36 {
		return 0
	}
	n := 2 + int(hash2(nw.key, 0x4007e4)%6)
	sub := nw.routerSub
	for i := 0; i < n; i++ {
		addr := ip6.AddrFromUint64(sub.Addr().Hi(), uint64(i)+1)
		var serves wire.RespMask
		serves.Set(wire.ICMPv6)
		in.b.add(Host{
			Addr:     addr,
			ASN:      nw.asn,
			Class:    ClassRouter,
			Serves:   serves,
			Machine:  hash2(nw.key^0x4007, uint64(i)),
			DeathDay: -1,
		})
	}
	return n
}

// TestPlanBulkMatchesRef pins the two-phase planner against planBulkRef
// on every reference world at GOMAXPROCS 1, 2 and 8: the same hosts in
// the same insertion order, domain IDs included, the same stale and
// alias records, networks, pools, regions, tier-1 routers and rDNS
// population. Some farm and router insertions must be duplicates, so the
// pin covers the first insertion winning.
func TestPlanBulkMatchesRef(t *testing.T) {
	dups := 0
	for ci, cfg := range refConfigs() {
		ref := newUnsealed(cfg)
		dups += ref.planBulkRef()
		ref.planRDNS()
		forProcs(t, func(procs int) {
			in := newUnsealed(cfg)
			in.planBulk()
			in.planRDNS()
			if !slices.Equal(in.b.arr, ref.b.arr) {
				t.Fatalf("config %d, GOMAXPROCS %d: %d hosts planned, reference %d, or a host or its rank differs", ci, procs, len(in.b.arr), len(ref.b.arr))
			}
			for _, c := range []struct {
				name     string
				got, ref any
			}{
				{"stale records", in.stale, ref.stale},
				{"alias records", in.aliasRecords, ref.aliasRecords},
				{"networks", in.nets, ref.nets},
				{"pools", in.isps, ref.isps},
				{"regions", in.regions, ref.regions},
				{"tier-1 routers", in.tier1, ref.tier1},
				{"rDNS addresses", in.rdns, ref.rdns},
			} {
				if !reflect.DeepEqual(c.got, c.ref) {
					t.Fatalf("config %d, GOMAXPROCS %d: %s differ from the reference", ci, procs, c.name)
				}
			}
		})
	}
	if dups == 0 {
		t.Fatal("no reference world offers a duplicate farm or router host")
	}
	t.Logf("%d duplicate farm and router insertions across the reference worlds", dups)
}
