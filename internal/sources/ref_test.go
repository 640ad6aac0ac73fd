package sources

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/dnssim"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

// The collectors as they were before collection became incremental, kept
// as oracles: every source re-reports everything visible on the day,
// and scamper walks the whole hitlist, resolves a full TraceroutePath
// per traced target and dedups hops in a map.

// firstEpochRef is the concatenating epoch draw: the standard library's
// FNV-1a, resumed at the name's key (the state after the name's bytes),
// fed "|"+salt as one string.
func firstEpochRef(key uint64, salt string, epochs int) int {
	if epochs <= 1 {
		return 0
	}
	h := fnv.New64a()
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err == nil {
		binary.BigEndian.PutUint64(state[len(state)-8:], key)
		err = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state)
	}
	if err != nil {
		panic(err)
	}
	h.Write([]byte("|" + salt))
	return int(h.Sum64() % uint64(epochs))
}

type refDNSSource struct {
	name   string
	dns    *dnssim.Server
	idx    []int
	epochs []int
	perDay int
}

func (s *refDNSSource) Name() string { return s.name }

func (s *refDNSSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	epoch := day / s.perDay
	var out []ip6.Addr
	for j, i := range s.idx {
		if s.epochs[j] <= epoch {
			out = append(out, s.dns.Resolve(i, day))
		}
	}
	return out
}

func newRefDNSSource(name string, dns *dnssim.Server, cfg netsim.Config, sees func(dnssim.Vis) bool) Source {
	s := &refDNSSource{name: name, dns: dns, perDay: cfg.EpochDays}
	for i := 0; i < dns.Len(); i++ {
		if sees(dns.Vis(i)) {
			s.idx = append(s.idx, i)
			s.epochs = append(s.epochs, firstEpochRef(dns.Key(i), name, cfg.Epochs))
		}
	}
	return s
}

type refBitnodesSource struct {
	hosts  []netsim.Host
	epochs int
	perDay int
}

func (s *refBitnodesSource) Name() string { return BIT }

func (s *refBitnodesSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	var out []ip6.Addr
	for _, h := range s.hosts {
		if addrEpoch(h.Addr, BIT, s.epochs) > day/s.perDay {
			continue
		}
		if h.DeathDay >= 0 && day >= int(h.DeathDay) {
			continue
		}
		out = append(out, h.Addr)
	}
	return out
}

type refAtlasSource struct {
	hosts  []netsim.Host
	epochs int
	perDay int
}

func (s *refAtlasSource) Name() string { return RA }

func (s *refAtlasSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	var out []ip6.Addr
	for _, h := range s.hosts {
		if addrEpoch(h.Addr, RA, s.epochs) <= day/s.perDay {
			out = append(out, h.Addr)
		}
	}
	return out
}

type refScamperSource struct {
	world *netsim.Internet
}

func (s *refScamperSource) Name() string { return Scamper }

func (s *refScamperSource) Collect(day int, hitlist *ip6.ShardSet) []ip6.Addr {
	if hitlist == nil {
		return nil
	}
	seen := ip6.NewSet(1024)
	hitlist.Each(func(a ip6.Addr) bool {
		if !s.world.InSubscriberSpace(a) && a.Hash64()%16 != 0 {
			return true
		}
		for _, hop := range s.world.TraceroutePath(a, day) {
			seen.Add(hop.Addr)
		}
		return true
	})
	return seen.Sorted()
}

// refSources builds the seven oracle collectors in store order.
func refSources(world *netsim.Internet, dns *dnssim.Server) []Source {
	cfg := world.Config()
	atlas := world.Hosts(netsim.ClassAtlas)
	for _, r := range world.Hosts(netsim.ClassRouter) {
		if r.Addr.Hash64()%10 < 3 {
			atlas = append(atlas, r)
		}
	}
	return []Source{
		newRefDNSSource(DL, dns, cfg, func(v dnssim.Vis) bool {
			return v.Has(dnssim.VisZoneFile) || v.Has(dnssim.VisBlacklist)
		}),
		newRefDNSSource(FDNS, dns, cfg, func(v dnssim.Vis) bool { return v.Has(dnssim.VisFDNS) }),
		newRefDNSSource(CT, dns, cfg, func(v dnssim.Vis) bool {
			return v.Has(dnssim.VisCT) && !v.Has(dnssim.VisZoneFile)
		}),
		newRefDNSSource(AXFR, dns, cfg, func(v dnssim.Vis) bool { return v.Has(dnssim.VisAXFR) }),
		&refBitnodesSource{hosts: world.Hosts(netsim.ClassBitnode), epochs: cfg.Epochs, perDay: cfg.EpochDays},
		&refAtlasSource{hosts: atlas, epochs: cfg.Epochs, perDay: cfg.EpochDays},
		&refScamperSource{world: world},
	}
}

// countingSource tallies what a source hands the store.
type countingSource struct {
	Source
	offered *int
}

func (s countingSource) Collect(day int, hitlist *ip6.ShardSet) []ip6.Addr {
	addrs := s.Source.Collect(day, hitlist)
	*s.offered += len(addrs)
	return addrs
}

func counting(srcs []Source, offered *int) []Source {
	out := make([]Source, len(srcs))
	for i, s := range srcs {
		out[i] = countingSource{Source: s, offered: offered}
	}
	return out
}

// eachOrder flattens a set in Each order: shard-major, insertion order
// within a shard.
func eachOrder(set *ip6.ShardSet) []ip6.Addr {
	out := make([]ip6.Addr, 0, set.Len())
	set.Each(func(a ip6.Addr) bool { out = append(out, a); return true })
	return out
}

// storesEqual compares everything a Store publishes: the hitlist and
// every per-source set in iteration order, the new-address tallies and
// the runup.
func storesEqual(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if !reflect.DeepEqual(eachOrder(got.All()), eachOrder(want.All())) {
		t.Errorf("%s: hitlist differs from the oracle's (%d vs %d addresses, or their order)", label, got.All().Len(), want.All().Len())
	}
	for _, name := range Names {
		if !reflect.DeepEqual(eachOrder(got.PerSource(name)), eachOrder(want.PerSource(name))) {
			t.Errorf("%s: %s set differs from the oracle's (%d vs %d addresses, or their order)", label, name, got.PerSource(name).Len(), want.PerSource(name).Len())
		}
		if got.NewCount(name) != want.NewCount(name) {
			t.Errorf("%s: NewCount(%s) = %d, oracle %d", label, name, got.NewCount(name), want.NewCount(name))
		}
	}
	if !reflect.DeepEqual(got.Runup(), want.Runup()) {
		t.Errorf("%s: runup differs from the oracle's\n got %+v\nwant %+v", label, got.Runup(), want.Runup())
	}
}

// TestDeltaSourcesMatchFullReemission pins incremental collection
// against the oracles: stores fed by delta-emitting sources must equal,
// in every published detail, stores fed by sources that re-report
// everything — at several worker counts, on two worlds, whichever
// ascending subset of the collection days is called, with a scamper
// that served another hitlist before, and with fresh sources handed an
// already populated hitlist, as core.Resume does.
func TestDeltaSourcesMatchFullReemission(t *testing.T) {
	world2 := netsim.New(netsim.Config{
		Seed:      7,
		Registry:  bgp.RegistryConfig{ASes: 180, PrefixesPerAS: 3, Seed: 11},
		Scale:     0.05,
		EpochDays: 5,
		Epochs:    10,
	})
	worlds := []struct {
		world *netsim.Internet
		dns   *dnssim.Server
	}{{world, dns}, {world2, dnssim.New(world2)}}

	for wi, w := range worlds {
		cfg := w.world.Config()
		last := cfg.Epochs - 1
		var every []int
		for e := 0; e <= last; e++ {
			every = append(every, e*cfg.EpochDays)
		}
		fresh := func() []Source {
			return []Source{
				NewDL(w.dns, cfg), NewFDNS(w.dns, cfg), NewCT(w.dns, cfg), NewAXFR(w.dns, cfg),
				NewBitnodes(w.world), NewAtlas(w.world), NewScamper(w.world),
			}
		}
		// The hitlist core.Resume restores: a finished collection's
		// addresses, added in ascending order.
		complete := NewStoreWorkers(1, refSources(w.world, w.dns)...)
		for _, day := range every {
			complete.CollectDay(day)
		}
		restored := complete.All().Sorted()

		patterns := []struct {
			name string
			days []int
			// srcs builds the sources under test for one store.
			srcs func(workers int) []Source
			// hitlist is what the store's hitlist holds before the first day.
			hitlist []ip6.Addr
		}{
			{"every epoch", every, func(int) []Source { return fresh() }, nil},
			{"first and last epoch", []int{0, last * cfg.EpochDays}, func(int) []Source { return fresh() }, nil},
			{"last day only", []int{last*cfg.EpochDays + cfg.EpochDays - 1}, func(int) []Source { return fresh() }, nil},
			{"fresh sources, restored hitlist", every, func(int) []Source { return fresh() }, restored},
			{"used scamper, new hitlist", every, func(workers int) []Source {
				// Wear the scamper in on a store of its own, then hand it,
				// with six fresh sources, a store that starts empty.
				used := fresh()
				st := NewStoreWorkers(workers, used...)
				for _, day := range every {
					st.CollectDay(day)
				}
				return append(fresh()[:6], used[6])
			}, nil},
		}
		for _, pat := range patterns {
			offeredRef := 0
			want := NewStoreWorkers(1, counting(refSources(w.world, w.dns), &offeredRef)...)
			want.All().AddSlice(pat.hitlist)
			for _, day := range pat.days {
				want.CollectDay(day)
			}
			if want.PerSource(Scamper).Len() == 0 || want.PerSource(FDNS).Len() == 0 {
				t.Fatalf("world %d, %s: oracle collected no scamper or FDNS addresses", wi, pat.name)
			}
			for _, workers := range []int{1, 2, 4, 16} {
				offered := 0
				got := NewStoreWorkers(workers, counting(pat.srcs(workers), &offered)...)
				got.All().AddSlice(pat.hitlist)
				for _, day := range pat.days {
					got.CollectDay(day)
				}
				label := fmt.Sprintf("world %d, %s, workers %d", wi, pat.name, workers)
				storesEqual(t, label, got, want)
				if offered > offeredRef {
					t.Errorf("%s: sources offered %d addresses, full re-emission %d", label, offered, offeredRef)
				}
				if len(pat.days) == len(every) && 2*offered > offeredRef {
					t.Errorf("%s: sources offered %d addresses over %d epochs, more than half of full re-emission's %d",
						label, offered, len(every), offeredRef)
				}
			}
		}
	}
}

// TestFirstEpochMatchesConcatenation pins the allocation-free draw, which
// continues a name's key, against the standard library hashing the
// concatenation from the same state.
func TestFirstEpochMatchesConcatenation(t *testing.T) {
	for i := range min(2000, dns.Len()) {
		for _, salt := range Names[:4] {
			if got, want := firstEpoch(dns.Key(i), salt, 10), firstEpochRef(dns.Key(i), salt, 10); got != want {
				t.Fatalf("firstEpoch(domain %d, %q) = %d, concatenation says %d", i, salt, got, want)
			}
		}
	}
}

// attributionRef is the map-keyed attribution Table 2 ran before the
// routing table's ID-column tally: one table lookup per address into an
// AS-keyed and a prefix-keyed count map.
func attributionRef(set *ip6.ShardSet, table *bgp.Table) (map[bgp.ASN]int, map[ip6.Prefix]int) {
	asCount := map[bgp.ASN]int{}
	pfxCount := map[ip6.Prefix]int{}
	set.Each(func(a ip6.Addr) bool {
		if p, asn, ok := table.Lookup(a); ok {
			asCount[asn]++
			pfxCount[p]++
		}
		return true
	})
	return asCount, pfxCount
}

// topSharesRef is the retired ranking of the AS count map: count
// descending, ties by ASN.
func topSharesRef(counts map[bgp.ASN]int, table *bgp.Table, n, total int) []ASShare {
	type ranked struct {
		asn bgp.ASN
		c   int
	}
	var all []ranked
	for a, c := range counts {
		all = append(all, ranked{a, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].asn < all[j].asn
	})
	if len(all) > n {
		all = all[:n]
	}
	var out []ASShare
	for _, e := range all {
		out = append(out, ASShare{ASN: e.asn, Name: table.AS(e.asn).Name, Share: float64(e.c) / float64(total)})
	}
	return out
}

// TestStatsMatchMapAttribution pins every attribution column of Table 2 —
// per source and the total row, at several worker counts — and the
// per-source shard tally Fig 1b reads against the map-keyed reference.
func TestStatsMatchMapAttribution(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		st := NewStoreWorkers(workers, allSources()...)
		cfg := world.Config()
		for e := 0; e < cfg.Epochs; e++ {
			st.CollectDay(e * cfg.EpochDays)
		}
		check := func(row SourceStat, set *ip6.ShardSet) {
			t.Helper()
			asCount, pfxCount := attributionRef(set, world.Table)
			if len(asCount) == 0 {
				t.Fatalf("workers %d, %s: reference attributes nothing", workers, row.Name)
			}
			if row.ASes != len(asCount) || row.Prefixes != len(pfxCount) {
				t.Errorf("workers %d, %s: %d ASes / %d prefixes, maps say %d / %d",
					workers, row.Name, row.ASes, row.Prefixes, len(asCount), len(pfxCount))
			}
			if want := topSharesRef(asCount, world.Table, 3, set.Len()); !reflect.DeepEqual(row.TopAS, want) {
				t.Errorf("workers %d, %s: TopAS = %+v, maps say %+v", workers, row.Name, row.TopAS, want)
			}
		}
		for _, row := range st.Stats(world.Table) {
			check(row, st.PerSource(row.Name))
		}
		check(st.TotalStat(world.Table), st.All())

		for _, name := range Names {
			_, pfxCount := attributionRef(st.PerSource(name), world.Table)
			tally := world.Table.Tally(workers, st.PerSource(name).Shards()...)
			for id, ann := range world.Table.Announcements() {
				if tally.Counts[id] != pfxCount[ann.Prefix] {
					t.Fatalf("workers %d, %s: %v tallies %d, map says %d", workers, name, ann.Prefix, tally.Counts[id], pfxCount[ann.Prefix])
				}
			}
		}
	}
}
