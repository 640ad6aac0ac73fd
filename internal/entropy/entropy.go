// Package entropy implements the paper's entropy-fingerprint analysis
// (§4): for a set of IPv6 addresses grouped by network, compute the
// normalized Shannon entropy of every nybble position, producing a
// fingerprint vector F_ab that characterizes the network's addressing
// scheme. Clustering these fingerprints (internal/cluster) reveals that
// the entire hitlist uses just a handful of schemes.
//
// The grouping stage consumes the data plane's cached globally-sorted
// view (ShardSet.Sorted) as it is: in a sorted slice every
// fixed-length-prefix group is a contiguous run, so ByPrefixLen is a
// boundary scan over subslices rather than a map-bucketing pass. BGP/AS
// grouping buckets the routing table's announcement-ID column
// (bgp.Table.Resolve, Buckets) and copies each kept bucket's addresses
// into per-worker scratch, and per-group fingerprint counting fans
// out over worker shards; every result is byte-identical for every worker
// count (nybble counts are integers merged position-wise).
package entropy

import (
	"sort"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/stats"
)

// MinGroupSize is the paper's minimum sample: groups with fewer addresses
// are skipped (equation (1): n >= 100).
const MinGroupSize = 100

// parallelMin is the sequence length below which fingerprint counting is
// not worth fanning out: a 16-bucket histogram over a few thousand
// addresses is cheaper than the goroutine round trip.
const parallelMin = 1 << 12

// FingerprintSeq computes F_ab for a set of addresses: the normalized
// entropy of nybbles a..b, 1-based inclusive as in the paper (a=9, b=32
// is the full-address fingerprint F932 after the /32 network part; a=17,
// b=32 is the IID fingerprint F1732). The nybble counting fans out over
// up to workers chunks; counts are integers and the chunk partials are
// summed position-wise, so the result is identical for every worker
// count.
func FingerprintSeq(addrs []ip6.Addr, a, b, workers int) []float64 {
	if a < 1 {
		a = 1
	}
	if b > 32 {
		b = 32
	}
	if b < a {
		return nil
	}
	counts := countNybbles(addrs, a, b, workers)
	fp := make([]float64, b-a+1)
	for i := range counts {
		fp[i] = stats.Entropy4(&counts[i])
	}
	return fp
}

// countNybbles tallies the per-position nybble histograms of addrs over
// positions a..b (1-based). With workers > 1 and a long enough slice
// the tally is chunk-parallel; partial histograms are added together, so
// the merged counts never depend on the chunking.
func countNybbles(addrs []ip6.Addr, a, b, workers int) [][16]int {
	n := len(addrs)
	counts := make([][16]int, b-a+1)
	if workers <= 1 || n < parallelMin {
		tally(addrs, a, b, counts)
		return counts
	}
	partials := make([][][16]int, workers)
	par.Ranges(n, workers, parallelMin, 1, func(c, lo, hi int) {
		part := make([][16]int, b-a+1)
		tally(addrs[lo:hi], a, b, part)
		partials[c] = part
	})
	for _, part := range partials {
		for i := range part {
			for v := 0; v < 16; v++ {
				counts[i][v] += part[i][v]
			}
		}
	}
	return counts
}

func tally(addrs []ip6.Addr, a, b int, counts [][16]int) {
	for _, addr := range addrs {
		for j := a; j <= b; j++ {
			counts[j-a][addr.Nybble(j-1)]++
		}
	}
}

// Group is a network (a /32, a BGP prefix, or an AS) with its sampled
// addresses' fingerprint.
type Group struct {
	// Key identifies the network (prefix string or "AS<n>").
	Key string
	// Prefix is set for prefix-based grouping (zero for AS grouping).
	Prefix ip6.Prefix
	// ASN is set for AS-based grouping (and best-effort otherwise).
	ASN bgp.ASN
	// Size is the number of addresses the fingerprint was computed from.
	Size int
	// FP is the fingerprint vector.
	FP []float64
}

// ByPrefixLen groups addresses by their enclosing fixed-length prefix
// (the paper's default: /32, "commonly the smallest blocks assigned to
// IPv6 networks") and fingerprints every group with at least min
// addresses over nybbles a..b. Groups are returned sorted by size
// descending, then by prefix.
//
// sorted MUST be in ascending address order — pass the store's cached
// sorted view (ShardSet.Sorted). Fixed-length-prefix groups are then
// contiguous runs, located by a galloping boundary scan; nothing is
// copied or map-bucketed. Fingerprints fan out over workers.
func ByPrefixLen(sorted []ip6.Addr, bits, min, a, b, workers int) []Group {
	if min <= 0 {
		min = MinGroupSize
	}
	type run struct {
		p      ip6.Prefix
		lo, hi int
	}
	var runs []run
	ip6.PrefixRuns(sorted, bits, func(p ip6.Prefix, lo, hi int) bool {
		if hi-lo >= min {
			runs = append(runs, run{p: p, lo: lo, hi: hi})
		}
		return true
	})
	out := make([]Group, len(runs))
	par.Queue(len(runs), workers, func(_, i, w int) {
		r := runs[i]
		out[i] = Group{
			Key:    r.p.String(),
			Prefix: r.p,
			Size:   r.hi - r.lo,
			FP:     FingerprintSeq(sorted[r.lo:r.hi], a, b, w),
		}
	})
	sortGroups(out)
	return out
}

// ByBGPPrefix groups addresses by their announced prefix. Unrouted
// addresses are skipped. Attribution is the routing table's kernel
// (bgp.Table.Resolve into per-announcement position buckets), so group
// membership, sizes and fingerprints are identical for every worker
// count.
func ByBGPPrefix(addrs []ip6.Addr, table *bgp.Table, min, a, b, workers int) []Group {
	anns := table.Announcements()
	return byBuckets(addrs, table.Buckets(table.Resolve(addrs, workers), false), min, a, b, workers,
		func(id int) Group {
			return Group{Key: anns[id].Prefix.String(), Prefix: anns[id].Prefix, ASN: anns[id].Origin}
		})
}

// ByAS groups addresses by origin AS. Unrouted addresses are skipped.
func ByAS(addrs []ip6.Addr, table *bgp.Table, min, a, b, workers int) []Group {
	origins := table.Origins()
	return byBuckets(addrs, table.Buckets(table.Resolve(addrs, workers), true), min, a, b, workers,
		func(k int) Group {
			return Group{Key: "AS" + itoa(uint64(origins[k])), ASN: origins[k]}
		})
}

// byBuckets fingerprints every position bucket holding at least min
// addresses; label names bucket k's group. Each worker gathers its
// group's addresses into its own scratch slice, reused group to group.
func byBuckets(addrs []ip6.Addr, buckets [][]int32, min, a, b, workers int, label func(k int) Group) []Group {
	if min <= 0 {
		min = MinGroupSize
	}
	var kept []int
	for k, idx := range buckets {
		if len(idx) >= min {
			kept = append(kept, k)
		}
	}
	out := make([]Group, len(kept))
	scratch := make([][]ip6.Addr, max(workers, 1))
	par.Queue(len(kept), workers, func(c, i, w int) {
		g := label(kept[i])
		group := scratch[c][:0]
		for _, j := range buckets[kept[i]] {
			group = append(group, addrs[j])
		}
		scratch[c] = group
		g.Size = len(group)
		g.FP = FingerprintSeq(group, a, b, w)
		out[i] = g
	})
	sortGroups(out)
	return out
}

func sortGroups(gs []Group) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Size != gs[j].Size {
			return gs[i].Size > gs[j].Size
		}
		return gs[i].Key < gs[j].Key
	})
}

// Vectors extracts the fingerprint matrix for clustering.
func Vectors(gs []Group) [][]float64 {
	out := make([][]float64, len(gs))
	for i, g := range gs {
		out[i] = g.FP
	}
	return out
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
