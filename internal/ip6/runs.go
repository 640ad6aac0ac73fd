package ip6

// PrefixRuns iterates the maximal runs of consecutive addresses in sorted
// that share the same length-bits prefix, calling fn with the prefix and
// the half-open index range [lo, hi) of the run; iteration stops early if
// fn returns false. The slice MUST be in ascending address order (the
// ShardSet's cached sorted view qualifies): then every fixed-length-prefix
// group is exactly one contiguous run, so grouping is a boundary scan over
// subslices instead of a map-bucketing pass over a copy. Run ends are
// located by galloping search, so a scan over g groups costs
// O(g·log(n/g)) comparisons, not O(n).
func PrefixRuns(sorted []Addr, bits int, fn func(p Prefix, lo, hi int) bool) {
	for lo := 0; lo < len(sorted); {
		p := PrefixFrom(sorted[lo], bits)
		hi := runEnd(sorted, p, lo)
		if !fn(p, lo, hi) {
			return
		}
		lo = hi
	}
}

// runEnd returns the smallest index in (lo, len(sorted)] at which the run
// of addresses covered by p ends: galloping doubles the step until it
// overshoots, then binary-searches the bracketed range.
func runEnd(sorted []Addr, p Prefix, lo int) int {
	n := len(sorted)
	// Invariant: sorted[a] is inside p; everything at or beyond b is not.
	a, step := lo, 1
	for {
		next := a + step
		if next >= n {
			if !p.Contains(sorted[n-1]) {
				break
			}
			return n
		}
		if !p.Contains(sorted[next]) {
			break
		}
		a = next
		step <<= 1
	}
	b := min(a+step, n)
	for a+1 < b {
		m := int(uint(a+b) >> 1)
		if p.Contains(sorted[m]) {
			a = m
		} else {
			b = m
		}
	}
	return a + 1
}
