package bgp

import (
	"math"
	"sort"

	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/stats"
)

// This file is the attribution kernel: nearly every table and figure of
// the paper is a tally over "which announcement, which AS does this
// address belong to". Resolve answers that once per address into a dense
// announcement-ID column; Tally, Buckets and SplitByAS are the ID-indexed
// reductions over it. Keys are dense and ascending (announcement IDs in
// table order, Origins() indices in ASN order), so every reduction is a
// slice walk and nothing carries a map's iteration order.

// resolveMinChunk is the shortest address range worth a goroutine: a
// cursor step on sorted input is a few compares.
const resolveMinChunk = 1024

// Resolve maps every address of addrs to the ID of the most specific
// announcement covering it (its index in Announcements()), or -1 if it is
// unrouted. Chunks of addrs resolve in parallel on up to workers
// goroutines, each walking its own interval cursor: an address-sorted
// slice costs one binary search per run of addresses sharing an
// announcement, an unsorted one degrades to one search per address. The
// column is identical for every worker count and input order.
func (t *Table) Resolve(addrs []ip6.Addr, workers int) []int32 {
	ids := make([]int32, len(addrs))
	par.Ranges(len(ids), workers, resolveMinChunk, 1, func(_, lo, hi int) {
		cur := ip6.NewIntervalCursor(t.ivals)
		for i := lo; i < hi; i++ {
			id, ok := cur.Lookup(addrs[i])
			if !ok {
				id = -1
			}
			ids[i] = id
		}
	})
	return ids
}

// Tally is a count of addresses per announcement, from which the per-AS
// and coverage figures derive.
type Tally struct {
	t *Table
	// Counts[id] is the number of tallied addresses whose most specific
	// announcement is id; it is aligned with Table.Announcements().
	Counts []int
}

// Tally resolves the address slices (see Resolve) and counts their
// routed addresses per announcement.
func (t *Table) Tally(workers int, addrs ...[]ip6.Addr) *Tally {
	ta := &Tally{t: t, Counts: make([]int, len(t.anns))}
	for _, a := range addrs {
		for _, id := range t.Resolve(a, workers) {
			if id >= 0 {
				ta.Counts[id]++
			}
		}
	}
	return ta
}

// Prefixes returns the number of announcements holding at least one
// tallied address.
func (ta *Tally) Prefixes() int { return nonZero(ta.Counts) }

// ASes returns the number of origin ASes holding at least one tallied
// address.
func (ta *Tally) ASes() int { return nonZero(ta.ByAS()) }

func nonZero(counts []int) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// ByAS folds the tally per origin AS; the column is aligned with
// Table.Origins().
func (ta *Tally) ByAS() []int {
	out := make([]int, len(ta.t.origins))
	for id, n := range ta.Counts {
		out[ta.t.asIdx[id]] += n
	}
	return out
}

// ASCount is an origin AS with its tallied address count.
type ASCount struct {
	ASN   ASN
	Count int
}

// TopAS returns the n ASes holding the most tallied addresses, count
// descending, ties by ASN (stats.TopN's order).
func (ta *Tally) TopAS(n int) []ASCount {
	byAS := ta.ByAS()
	top := stats.TopN(byAS, n)
	out := make([]ASCount, len(top))
	for i, k := range top {
		out[i] = ASCount{ASN: ta.t.origins[k], Count: byAS[k]}
	}
	return out
}

// Concentration returns the tally's concentration curve over origin ASes
// (byAS) or over announced prefixes.
func (ta *Tally) Concentration(byAS bool) *stats.Concentration {
	if byAS {
		return stats.NewConcentration(ta.ByAS())
	}
	return stats.NewConcentration(ta.Counts)
}

// Of returns the count of the announcement of exactly p, 0 if p is not
// announced.
func (ta *Tally) Of(p ip6.Prefix) int {
	anns := ta.t.anns
	i := sort.Search(len(anns), func(k int) bool { return ip6.CompareNested(anns[k].Prefix, p) >= 0 })
	if i < len(anns) && anns[i].Prefix == p {
		return ta.Counts[i]
	}
	return 0
}

// Buckets groups the positions of an ID column (Resolve's output on this
// table) by announcement or, with byAS, by origin AS: entry k lists,
// ascending, the positions whose address resolved to announcement ID k
// (to Origins()[k]). Unrouted positions are in no bucket. Positions are
// int32 — the compactness trade the data plane's batch insert makes — so
// a column beyond 2^31 addresses fails loudly instead of truncating.
// The buckets are a counting sort's output: they share one backing array.
func (t *Table) Buckets(ids []int32, byAS bool) [][]int32 {
	if len(ids) > math.MaxInt32 {
		panic("bgp: ID column exceeds int32 index space")
	}
	nkeys := len(t.anns)
	if byAS {
		nkeys = len(t.origins)
	}
	keyOf := func(id int32) int32 {
		if byAS {
			return t.asIdx[id]
		}
		return id
	}
	// start[k] is bucket k's offset in the backing array: sizes, then
	// their prefix sum.
	start := make([]int, nkeys+1)
	for _, id := range ids {
		if id >= 0 {
			start[keyOf(id)+1]++
		}
	}
	for k := 0; k < nkeys; k++ {
		start[k+1] += start[k]
	}
	backing := make([]int32, start[nkeys])
	out := make([][]int32, nkeys)
	for k := range out {
		out[k] = backing[start[k]:start[k]:start[k+1]] // empty, capacity = its size
	}
	for i, id := range ids {
		if id >= 0 {
			k := keyOf(id)
			out[k] = append(out[k], int32(i))
		}
	}
	return out
}

// ASGroup is the share of an address list originated by one AS.
type ASGroup struct {
	ASN   ASN
	Addrs []ip6.Addr
}

// SplitByAS splits addrs by origin AS — the per-AS seed sets of §7. It
// returns one group per AS with at least one address, ASN ascending, each
// holding its addresses in input order; unrouted addresses are dropped.
func (t *Table) SplitByAS(addrs []ip6.Addr, workers int) []ASGroup {
	origins := t.Origins()
	var out []ASGroup
	for k, idx := range t.Buckets(t.Resolve(addrs, workers), true) {
		if len(idx) == 0 {
			continue
		}
		g := ASGroup{ASN: origins[k], Addrs: make([]ip6.Addr, len(idx))}
		for j, i := range idx {
			g.Addrs[j] = addrs[i]
		}
		out = append(out, g)
	}
	return out
}
