package ip6

import (
	"math/bits"

	"expanse/internal/par"
)

// sortRun is the shortest run Sort hands to a goroutine: a slice under
// two runs sorts inline on the caller's goroutine.
const sortRun = 1 << 12

// Sort sorts a in ascending order on up to workers goroutines: the one
// address sort behind the sorted hitlist view (ShardSet.Sorted), the
// world's host column and the reverse DNS zone. a is cut into equal
// contiguous runs, one per worker, which sort concurrently (sortAddrs);
// neighbouring runs are then merged pairwise, level by level, between a
// and one scratch slice, the merges of a level concurrently. The runs
// sort in whichever of the two the last level does not write, so the
// result lands in a without a copy back. Ascending order is unique up to
// equal addresses, which are indistinguishable, so the result does not
// depend on workers.
func Sort(a []Addr, workers int) { sortParallel(a, workers, sortRun) }

// sortParallel is Sort with the shortest run as a parameter, so tests can
// drive the fan-out on small inputs.
func sortParallel(a []Addr, workers, minRun int) {
	n := len(a)
	k := max(min(workers, n/max(minRun, 1)), 1)
	if k == 1 {
		sortAddrs(a)
		return
	}
	bounds := make([]int, k+1)
	for i := range bounds {
		bounds[i] = int(int64(n) * int64(i) / int64(k))
	}
	src, dst := a, make([]Addr, n)
	if bits.Len(uint(k-1))%2 == 1 {
		// An odd number of merge levels ends in the scratch slice unless
		// the runs start there.
		src, dst = dst, src
	}
	par.Queue(k, k, func(_, i, _ int) {
		run := src[bounds[i]:bounds[i+1]]
		if &src[0] != &a[0] {
			copy(run, a[bounds[i]:bounds[i+1]])
		}
		sortAddrs(run)
	})
	for runs := k; runs > 1; runs = (runs + 1) / 2 {
		par.Queue((runs+1)/2, workers, func(_, j, _ int) {
			lo, mid := bounds[2*j], bounds[2*j+1]
			if 2*j+1 == runs {
				copy(dst[lo:mid], src[lo:mid]) // the odd run out
				return
			}
			hi := bounds[2*j+2]
			mergeAddrs(dst[lo:hi], src[lo:mid], src[mid:hi])
		})
		m := 0
		for i := 0; i < runs; i += 2 {
			bounds[m] = bounds[i]
			m++
		}
		bounds[m] = bounds[runs]
		bounds = bounds[:m+1]
		src, dst = dst, src
	}
}

// mergeAddrs merges the ascending slices x and y into dst, which holds
// exactly len(x)+len(y) addresses.
func mergeAddrs(dst, x, y []Addr) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].Less(x[i]) {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// sortAddrs sorts a in ascending order: an iterative median-of-three
// quicksort with an insertion-sort tail. Hand-rolled deliberately:
// slices.SortFunc(a, Addr.Compare) measured 1.5× slower on 64 tails of
// 2,560 addresses (x86-64, Go 1.24; it calls the comparison through a
// func value, where Addr.Less inlines here); correctness is pinned
// against slices.SortFunc by TestSortColumnsProperty.
func sortAddrs(a []Addr) {
	lo, hi := 0, len(a)
	for hi-lo > 16 {
		// Median-of-three pivot: order elements lo, m, hi-1 and take the
		// middle one's value.
		m := int(uint(lo+hi) >> 1)
		if a[m].Less(a[lo]) {
			a[m], a[lo] = a[lo], a[m]
		}
		if a[hi-1].Less(a[m]) {
			a[hi-1], a[m] = a[m], a[hi-1]
			if a[m].Less(a[lo]) {
				a[m], a[lo] = a[lo], a[m]
			}
		}
		p := a[m]
		// Hoare partition around the pivot value.
		i, j := lo, hi-1
		for {
			for a[i].Less(p) {
				i++
			}
			for p.Less(a[j]) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1-lo < hi-(j+1) {
			sortAddrs(a[lo : j+1])
			lo = j + 1
		} else {
			sortAddrs(a[j+1 : hi])
			hi = j + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for k := i; k > lo && a[k].Less(a[k-1]); k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}
