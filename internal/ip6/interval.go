package ip6

import "sort"

// Interval is one row of a compiled prefix table: the inclusive address
// range [Lo, Hi] and the value of the most specific prefix covering it.
// A compiled table is the flat, branch-free form of a longest-prefix-match
// trie: sorted, disjoint, and directly mergeable against a sorted address
// stream.
type Interval[V any] struct {
	Lo, Hi Addr
	Val    V
}

// CompileIntervals flattens per-prefix value assignments into a sorted
// table of disjoint inclusive address intervals with most-specific-wins
// semantics: an address inside several of the prefixes lands in the
// interval carrying the longest (most specific) covering prefix's value,
// exactly as a trie longest-prefix-match would decide. Addresses covered
// by none of the prefixes fall between intervals. Adjacent intervals with
// equal values are coalesced, so the table is also minimal.
//
// The prefixes must be unique and in CompareNested (address, length)
// order, in which a prefix precedes everything it contains and nesting
// is stack-shaped (prefixes are nested or disjoint, never partially
// overlapping). Every caller already holds that order (the alias plane's
// verdict column, bgp.Table's announcement column, netsim's
// dedupeByPrefix); the sweep checks it as it goes and panics on a
// violation, which only a caller bug can produce.
// Each prefix appears as at most O(len) rows (its range minus the ranges
// of its more-specifics), so the table has at most O(n·128) rows and in
// practice close to n.
func CompileIntervals[V comparable](prefixes []Prefix, vals []V) []Interval[V] {
	if len(prefixes) != len(vals) {
		panic("ip6: CompileIntervals length mismatch")
	}
	n := len(prefixes)
	if n == 0 {
		return nil
	}
	out := make([]Interval[V], 0, n)
	emit := func(lo, hi Addr, v V) {
		if k := len(out); k > 0 && out[k-1].Val == v && out[k-1].Hi.Next() == lo {
			out[k-1].Hi = hi
			return
		}
		out = append(out, Interval[V]{Lo: lo, Hi: hi, Val: v})
	}

	type frame struct {
		last Addr // highest address of the stacked prefix
		val  V
	}
	var stack []frame
	var cur Addr // next uncovered address inside the stack top
	// exhausted flags that an emitted interval reached the top of the
	// address space, so cur has wrapped to zero and nothing remains.
	exhausted := false
	closeTop := func(top frame) {
		if !exhausted && !top.last.Less(cur) {
			emit(cur, top.last, top.val)
			if top.last == (Addr{hi: ^uint64(0), lo: ^uint64(0)}) {
				exhausted = true
			}
			cur = top.last.Next()
		}
	}
	for i, p := range prefixes {
		if i > 0 && CompareNested(prefixes[i-1], p) >= 0 {
			panic("ip6: CompileIntervals input not unique and (address, length)-sorted")
		}
		v := vals[i]
		start := p.Addr()
		// Pop every stacked prefix that ends before this one starts,
		// emitting its remaining uncovered tail.
		for len(stack) > 0 && stack[len(stack)-1].last.Less(start) {
			closeTop(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		// The enclosing prefix (if any) owns the gap up to this start.
		if len(stack) > 0 && cur.Less(start) {
			emit(cur, start.Prev(), stack[len(stack)-1].val)
		}
		cur = start
		stack = append(stack, frame{last: p.Last(), val: v})
	}
	for len(stack) > 0 {
		closeTop(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	return out
}

// LookupInterval returns the value of the table interval containing a, or
// ok=false if a falls outside every interval. The table must be sorted and
// disjoint (CompileIntervals output). It is the point-query complement of
// the linear merge: a single binary search, no trie walk.
func LookupInterval[V any](tab []Interval[V], a Addr) (val V, ok bool) {
	// First interval whose Hi is >= a; a is inside it iff its Lo is <= a.
	i := sort.Search(len(tab), func(k int) bool { return a.Compare(tab[k].Hi) <= 0 })
	if i < len(tab) && !a.Less(tab[i].Lo) {
		return tab[i].Val, true
	}
	return val, false
}

// IntervalCursor is a cursor over a sorted disjoint interval table
// (CompileIntervals output) that caches the run containing the last query
// — the interval it hit, or the gap between intervals it missed into.
// Queries inside the cached run are two address compares; only a run
// change pays the binary search. This is what makes batched resolution
// cheap: sorted addresses advance through runs monotonically, and an
// unsorted stream degrades to LookupInterval's one search per address.
// A fresh cursor's first Lookup is one binary search, the point query.
// A cursor is single-goroutine state; concurrent walkers each take their
// own over the shared read-only table.
type IntervalCursor[V any] struct {
	tab    []Interval[V]
	lo, hi Addr // cached run bounds (inclusive)
	val    V
	hit    bool // cached run is an interval (else a gap)
	valid  bool
}

// NewIntervalCursor returns a fresh cursor over tab.
func NewIntervalCursor[V any](tab []Interval[V]) IntervalCursor[V] {
	return IntervalCursor[V]{tab: tab}
}

// Lookup returns the value of the interval containing a, or ok=false if a
// falls between intervals.
func (c *IntervalCursor[V]) Lookup(a Addr) (V, bool) {
	if c.valid && !a.Less(c.lo) && a.Compare(c.hi) <= 0 {
		return c.val, c.hit
	}
	var zero V
	c.val, c.hit, c.valid = zero, false, true
	i := sort.Search(len(c.tab), func(k int) bool { return a.Compare(c.tab[k].Hi) <= 0 })
	if i < len(c.tab) && !a.Less(c.tab[i].Lo) {
		c.lo, c.hi = c.tab[i].Lo, c.tab[i].Hi
		c.val, c.hit = c.tab[i].Val, true
		return c.val, true
	}
	// A gap: from past the previous interval (or the space's bottom) to
	// before the next (or the space's top).
	if i > 0 {
		c.lo = c.tab[i-1].Hi.Next()
	} else {
		c.lo = Addr{}
	}
	if i < len(c.tab) {
		c.hi = c.tab[i].Lo.Prev()
	} else {
		c.hi = MaxAddr()
	}
	return zero, false
}
