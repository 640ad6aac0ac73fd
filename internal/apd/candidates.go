package apd

import (
	"cmp"
	"slices"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

// Candidate is one prefix scheduled for alias detection.
type Candidate struct {
	Prefix ip6.Prefix
	// Targets is the number of hitlist addresses inside the prefix
	// (0 for BGP-derived candidates).
	Targets int
}

// HitlistCandidates maps hitlist addresses to all prefixes from /64 to
// /124 in 4-bit steps and returns those with more than minTargets
// addresses — except /64s, which are all kept ("so as to allow full
// analysis of all known /64 prefixes"). It consumes the ShardSet's cached
// sorted view: candidates are derived by candidatesFromSorted's
// run-boundary scan, so no per-level prefix maps or address copies are
// ever materialized.
func HitlistCandidates(set *ip6.ShardSet, minTargets int) []Candidate {
	return candidatesFromSorted(set.Sorted(), minTargets)
}

// candidatesFromSorted derives the multi-level candidate set from an
// ascending address slice. In sorted order every fixed-length prefix
// group is one contiguous run, so each depth level is a run-boundary scan
// (ip6.PrefixRuns, galloping run ends) refining only above-threshold runs
// through subslices (the map-bucketing reference it is pinned against
// lives in legacy_ref_test.go). Per-depth runs arrive in ascending
// address order and depths are emitted shallow-to-deep, so the result is
// already in ComparePrefix order (length, then address) without a sort.
func candidatesFromSorted(sorted []ip6.Addr, minTargets int) []Candidate {
	if minTargets <= 0 {
		minTargets = DefaultMinTargets
	}
	const levels = (124-64)/4 + 1
	var perDepth [levels][]Candidate
	var refine func(view []ip6.Addr, depth int)
	refine = func(view []ip6.Addr, depth int) {
		li := (depth - 64) / 4
		ip6.PrefixRuns(view, depth, func(p ip6.Prefix, lo, hi int) bool {
			n := hi - lo
			if depth > 64 && n <= minTargets {
				return true // below threshold, and /64s only are exempt
			}
			perDepth[li] = append(perDepth[li], Candidate{Prefix: p, Targets: n})
			if n > minTargets && depth < 124 {
				refine(view[lo:hi], depth+4)
			}
			return true
		})
	}
	refine(sorted, 64)
	total := 0
	for _, l := range perDepth {
		total += len(l)
	}
	out := make([]Candidate, 0, total)
	for _, l := range perDepth {
		out = append(out, l...)
	}
	return out
}

// BGPCandidates returns every announced prefix as a candidate, probed
// as-is ("without enumerating additional prefixes").
func BGPCandidates(table *bgp.Table) []Candidate {
	anns := table.Announcements()
	out := make([]Candidate, len(anns))
	for i, a := range anns {
		out[i] = Candidate{Prefix: a.Prefix}
	}
	return out
}

// CandidateTable is the frozen candidate universe of an APD study: the
// day-0 candidate list in probe order, with every distinct prefix
// assigned a stable integer ID. The IDs index the columnar day history
// (History) and the pipeline's running near-aliased masks, so daily
// bookkeeping is array scans rather than per-prefix map probes. Entries
// may repeat a prefix (hitlist- and BGP-derived candidates are probed
// independently); such entries share one ID.
//
// The table is the one place the alias plane sorts a prefix: one sort of
// the entries numbers the prefixes and fixes order, the IDs in
// ip6.CompareNested (address, length) order. Every day's verdict column
// (Verdicts) is a walk of that order, so nothing downstream — filter
// compilation, the epoch digest, the nested-pair taxonomy — sorts or
// looks a prefix up again.
type CandidateTable struct {
	cands    []Candidate
	entryID  []int32
	prefixes []ip6.Prefix
	order    []int32
}

// NewCandidateTable freezes a candidate list, assigning IDs in first-
// occurrence order (deterministic: the list order is the probe order).
// One sort of the entry indices by (prefix in CompareNested order, entry
// index) leads each run of equal prefixes with its first occurrence; the
// runs' leaders, in sorted order, become order once a pass over the
// entries has numbered them.
func NewCandidateTable(cands []Candidate) *CandidateTable {
	byPrefix := make([]int32, len(cands))
	for i := range byPrefix {
		byPrefix[i] = int32(i)
	}
	slices.SortFunc(byPrefix, func(a, b int32) int {
		if c := ip6.CompareNested(cands[a].Prefix, cands[b].Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Compact the leaders to the front of byPrefix; entryID holds -1 for
	// a leader and its leader's entry index for a repeat.
	entryID := make([]int32, len(cands))
	leaders := byPrefix[:0]
	for _, e := range byPrefix {
		if n := len(leaders); n > 0 && cands[leaders[n-1]].Prefix == cands[e].Prefix {
			entryID[e] = leaders[n-1]
			continue
		}
		entryID[e] = -1
		leaders = append(leaders, e)
	}
	prefixes := make([]ip6.Prefix, 0, len(leaders))
	for i, c := range cands {
		if lead := entryID[i]; lead >= 0 {
			entryID[i] = entryID[lead] // a leader precedes its repeats
			continue
		}
		entryID[i] = int32(len(prefixes))
		prefixes = append(prefixes, c.Prefix)
	}
	for k, e := range leaders {
		leaders[k] = entryID[e]
	}
	return &CandidateTable{cands: cands, entryID: entryID, prefixes: prefixes, order: slices.Clone(leaders)}
}

// Candidates returns the full entry list in probe order. Read-only.
func (t *CandidateTable) Candidates() []Candidate { return t.cands }

// NumIDs returns the number of distinct prefixes (the ID space width).
func (t *CandidateTable) NumIDs() int { return len(t.prefixes) }

// EntryID returns the prefix ID of entry i.
func (t *CandidateTable) EntryID(i int) int32 { return t.entryID[i] }

// PrefixOf returns the prefix assigned the given ID.
func (t *CandidateTable) PrefixOf(id int32) ip6.Prefix { return t.prefixes[id] }
