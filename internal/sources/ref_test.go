package sources

import (
	"reflect"
	"sort"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

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
			tally := world.Table.Tally(workers, st.PerSource(name).ShardSeqs()...)
			for id, ann := range world.Table.Announcements() {
				if tally.Counts[id] != pfxCount[ann.Prefix] {
					t.Fatalf("workers %d, %s: %v tallies %d, map says %d", workers, name, ann.Prefix, tally.Counts[id], pfxCount[ann.Prefix])
				}
			}
		}
	}
}
