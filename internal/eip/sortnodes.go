// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is a frozen copy of the pdqsort in Go's sort/zsortinterface.go
// (Go 1.24), specialised to the walk's frontier: Less(i, j) is
// h[i].logP > h[j].logP and Swap a plain swap. It makes exactly the moves
// sort.Sort makes over the same Less, so the order it leaves among equal
// logP — which the §7 reports print — no longer depends on the toolchain.
// Only the functions pdqsort reaches are kept.
//
// One change: every loop iteration returns once its range starts at or
// after keep. pdqsort on [a,b) moves only elements of [a,b) and reads
// only a-1 besides, and each breakPatterns seeds its generator from its
// own range length, so skipping ranges that lie wholly past keep leaves
// h[:keep] exactly as a full sort leaves it.

package eip

import "math/bits"

// sortNodes sorts h by logP descending as far as h[:keep]: that prefix
// is what sort.Sort would leave there; h[keep:] holds the rest in no
// particular order.
func sortNodes(h []node, keep int) {
	n := len(h)
	if n <= 1 {
		return
	}
	limit := bits.Len(uint(n))
	pdqsortNodes(h, 0, n, limit, keep)
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	shift := uint(bits.Len(uint(length)))
	return uint(1 << shift)
}

// insertionSortNodes sorts h[a:b] using insertion sort.
func insertionSortNodes(h []node, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && h[j].logP > h[j-1].logP; j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// siftDownNodes implements the heap property on h[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownNodes(h []node, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && h[first+child].logP > h[first+child+1].logP {
			child++
		}
		if !(h[first+root].logP > h[first+child].logP) {
			return
		}
		h[first+root], h[first+child] = h[first+child], h[first+root]
		root = child
	}
}

func heapSortNodes(h []node, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownNodes(h, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		h[first], h[first+i] = h[first+i], h[first]
		siftDownNodes(h, lo, i, first)
	}
}

// pdqsortNodes sorts h[a:b] as far as h[:keep].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortNodes(h []node, a, b, limit, keep int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		// Nothing in h[a:b] survives the trim.
		if a >= keep {
			return
		}

		length := b - a

		if length <= maxInsertion {
			insertionSortNodes(h, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortNodes(h, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsNodes(h, a, b)
			limit--
		}

		pivot, hint := choosePivotNodes(h, a, b)
		if hint == decreasingHint {
			reverseRangeNodes(h, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortNodes(h, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(h[a-1].logP > h[pivot].logP) {
			mid := partitionEqualNodes(h, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionNodes(h, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortNodes(h, a, mid, limit, keep)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortNodes(h, mid+1, b, limit, keep)
			b = mid
		}
	}
}

// partitionNodes does one quicksort partition.
// Let p = h[pivot]
// Moves elements in h[a:b] around, so that h[i]<p and h[j]>=p for i<newpivot and j>newpivot.
// On return, h[newpivot] = p
func partitionNodes(h []node, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	h[a], h[pivot] = h[pivot], h[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && h[i].logP > h[a].logP {
		i++
	}
	for i <= j && !(h[j].logP > h[a].logP) {
		j--
	}
	if i > j {
		h[j], h[a] = h[a], h[j]
		return j, true
	}
	h[i], h[j] = h[j], h[i]
	i++
	j--

	for {
		for i <= j && h[i].logP > h[a].logP {
			i++
		}
		for i <= j && !(h[j].logP > h[a].logP) {
			j--
		}
		if i > j {
			break
		}
		h[i], h[j] = h[j], h[i]
		i++
		j--
	}
	h[j], h[a] = h[a], h[j]
	return j, false
}

// partitionEqualNodes partitions h[a:b] into elements equal to h[pivot] followed by elements greater than h[pivot].
// It assumed that h[a:b] does not contain elements smaller than the h[pivot].
func partitionEqualNodes(h []node, a, b, pivot int) (newpivot int) {
	h[a], h[pivot] = h[pivot], h[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(h[a].logP > h[i].logP) {
			i++
		}
		for i <= j && h[a].logP > h[j].logP {
			j--
		}
		if i > j {
			break
		}
		h[i], h[j] = h[j], h[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortNodes partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortNodes(h []node, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(h[i].logP > h[i-1].logP) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		h[i], h[i-1] = h[i-1], h[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(h[j].logP > h[j-1].logP) {
					break
				}
				h[j], h[j-1] = h[j-1], h[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(h[j].logP > h[j-1].logP) {
					break
				}
				h[j], h[j-1] = h[j-1], h[j]
			}
		}
	}
	return false
}

// breakPatternsNodes scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsNodes(h []node, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			h[idx], h[a+other] = h[a+other], h[idx]
		}
	}
}

// choosePivotNodes chooses a pivot in h[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotNodes(h []node, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentNodes(h, i, &swaps)
			j = medianAdjacentNodes(h, j, &swaps)
			k = medianAdjacentNodes(h, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianNodes(h, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Nodes returns x,y where h[x] <= h[y], where x,y=a,b or x,y=b,a.
func order2Nodes(h []node, a, b int, swaps *int) (int, int) {
	if h[b].logP > h[a].logP {
		*swaps++
		return b, a
	}
	return a, b
}

// medianNodes returns x where h[x] is the median of h[a],h[b],h[c], where x is a, b, or c.
func medianNodes(h []node, a, b, c int, swaps *int) int {
	a, b = order2Nodes(h, a, b, swaps)
	b, c = order2Nodes(h, b, c, swaps)
	a, b = order2Nodes(h, a, b, swaps)
	return b
}

// medianAdjacentNodes finds the median of h[a - 1], h[a], h[a + 1] and stores the index into a.
func medianAdjacentNodes(h []node, a int, swaps *int) int {
	return medianNodes(h, a-1, a, a+1, swaps)
}

func reverseRangeNodes(h []node, a, b int) {
	i := a
	j := b - 1
	for i < j {
		h[i], h[j] = h[j], h[i]
		i++
		j--
	}
}
