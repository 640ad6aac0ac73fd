package entropy

import (
	"fmt"
	"reflect"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/par"
)

// The chunked map-bucketing grouping that ByBGPPrefix and ByAS ran before
// the routing table's ID column: per-chunk key → index maps with
// first-seen key order, merged chunk-major. Kept as the oracle for group
// membership, sizes and fingerprints.

type lookupChunkRef[K comparable] struct {
	m     map[K]*chunkEntryRef
	order []K
}

type chunkEntryRef struct {
	asn bgp.ASN
	idx []int32
}

func lookupChunksRef[K comparable](addrs []ip6.Addr, workers int, lookup func(ip6.Addr) (K, bgp.ASN, bool)) []lookupChunkRef[K] {
	chunks := make([]lookupChunkRef[K], max(workers, 1))
	par.Ranges(len(addrs), workers, 256, 1, func(c, lo, hi int) {
		ch := lookupChunkRef[K]{m: make(map[K]*chunkEntryRef)}
		for i := lo; i < hi; i++ {
			key, asn, ok := lookup(addrs[i])
			if !ok {
				continue
			}
			e, ok := ch.m[key]
			if !ok {
				e = &chunkEntryRef{asn: asn}
				ch.m[key] = e
				ch.order = append(ch.order, key)
			}
			e.idx = append(e.idx, int32(i))
		}
		chunks[c] = ch
	})
	return chunks
}

// groupRef merges the chunks in input order and fingerprints every group
// of at least min addresses; label fills in the key fields.
func groupRef[K comparable](addrs []ip6.Addr, chunks []lookupChunkRef[K], min, a, b int, label func(K, bgp.ASN) Group) []Group {
	merged := map[K]*chunkEntryRef{}
	var order []K
	for _, ch := range chunks {
		for _, k := range ch.order {
			e := ch.m[k]
			g, ok := merged[k]
			if !ok {
				g = &chunkEntryRef{asn: e.asn}
				merged[k] = g
				order = append(order, k)
			}
			g.idx = append(g.idx, e.idx...)
		}
	}
	var out []Group
	for _, k := range order {
		g := merged[k]
		if len(g.idx) < min {
			continue
		}
		gr := label(k, g.asn)
		gr.Size = len(g.idx)
		group := make([]ip6.Addr, len(g.idx))
		for i, j := range g.idx {
			group[i] = addrs[j]
		}
		gr.FP = FingerprintSeq(group, a, b, 1)
		out = append(out, gr)
	}
	sortGroups(out)
	return out
}

func byBGPPrefixRef(addrs []ip6.Addr, table *bgp.Table, min, a, b, workers int) []Group {
	chunks := lookupChunksRef(addrs, workers, table.Lookup)
	return groupRef(addrs, chunks, min, a, b, func(p ip6.Prefix, asn bgp.ASN) Group {
		return Group{Key: p.String(), Prefix: p, ASN: asn}
	})
}

func byASRef(addrs []ip6.Addr, table *bgp.Table, min, a, b, workers int) []Group {
	chunks := lookupChunksRef(addrs, workers, func(addr ip6.Addr) (bgp.ASN, bgp.ASN, bool) {
		asn, ok := table.Origin(addr)
		return asn, asn, ok
	})
	return groupRef(addrs, chunks, min, a, b, func(asn, _ bgp.ASN) Group {
		return Group{Key: "AS" + itoa(uint64(asn)), ASN: asn}
	})
}

// TestBGPGroupingMatchesMapBucketing pins ByBGPPrefix and ByAS — keys,
// origins, sizes, fingerprints, order — against the map-bucketing oracle,
// on sorted and on unsorted input, over a table with nested
// announcements, an AS spanning several prefixes and unrouted addresses.
func TestBGPGroupingMatchesMapBucketing(t *testing.T) {
	var extra []bgp.Announcement
	for i := 0; i < 4; i++ { // more-specifics inside the /32s, one re-originated
		p := ip6.MustParsePrefix(fmt.Sprintf("2001:%x::/40", 0xd00+i))
		extra = append(extra, bgp.Announcement{Prefix: p, Origin: bgp.ASN(100 + (i+1)%5)})
	}
	table, addrs := routedWorld(33, 20000, extra...)
	for i := 0; i < 300; i++ {
		addrs = append(addrs, ip6.AddrFromUint64(0xfd00<<48, uint64(i))) // unrouted
	}
	for name, seq := range map[string][]ip6.Addr{"unsorted": addrs, "sorted": sorted(addrs)} {
		for _, workers := range []int{1, 4, 16} {
			want := byBGPPrefixRef(seq, table, 50, 9, 32, workers)
			if got := ByBGPPrefix(seq, table, 50, 9, 32, workers); len(want) < 8 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers %d: ByBGPPrefix (%d groups) differs from the map-bucketing oracle (%d groups)", name, workers, len(got), len(want))
			}
			want = byASRef(seq, table, 50, 9, 32, workers)
			if got := ByAS(seq, table, 50, 9, 32, workers); len(want) != 5 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers %d: ByAS (%d groups) differs from the map-bucketing oracle (%d groups)", name, workers, len(got), len(want))
			}
		}
	}
}
