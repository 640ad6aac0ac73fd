// Package hotalloc is the hotalloc fixture: the allocation regressions
// PRs 4-7 hunted by profile — per-probe Addr.String keys, fmt in
// responders, per-iteration scratch — written into a designated hot
// function (the analyzer runs with ScanColumns, MergeColumns, resolve,
// resolveSeq and expand of this package in its hot table), next to a
// cold function where the same constructs are fine and the hoisted
// patterns that keep hot paths clean.
package hotalloc

import (
	"fmt"

	"expanse/internal/ip6"
)

// ScanColumns is a designated hot function.
func ScanColumns(targets []ip6.Addr, out map[string]int) {
	for _, a := range targets {
		key := a.String() // want `Addr.String in hot path ScanColumns`
		out[key]++
		buf := make([]byte, 16) // want `make allocates per iteration in hot path ScanColumns`
		_ = buf
		scratch := []int{1, 2, 3} // want `composite literal allocates per iteration in hot path ScanColumns`
		_ = scratch
	}
}

// MergeColumns is a designated hot function: formatting is flagged
// even outside a loop, and per-iteration string building is flagged in
// one.
func MergeColumns(ids []int) string {
	header := fmt.Sprintf("n=%d", len(ids)) // want `fmt.Sprintf in hot path MergeColumns`
	for _, id := range ids {
		header = header + string(rune(id)) // want `string concatenation allocates per iteration in hot path MergeColumns`
	}
	return header
}

// resolve is a designated hot function with no loop of its own — it is
// the per-probe body of its callers' loops. A debug key built from the
// destination is flagged there all the same.
func resolve(trace map[string]int, lo, hi uint64, dst ip6.Addr) bool {
	if trace != nil {
		trace[dst.String()]++ // want `Addr.String in hot path resolve`
	}
	return dst.Hi() >= lo && dst.Hi() <= hi
}

// resolveSeq is a designated hot function: the attribution kernel's
// per-address walk over a sequence. The ID column allocated once up front
// is the clean shape; a per-address scratch or label inside the walk is
// flagged.
func resolveSeq(seq []ip6.Addr, bounds []uint64) []int32 {
	ids := make([]int32, len(seq))
	for i, a := range seq {
		hit := make([]int32, 0, 1) // want `make allocates per iteration in hot path resolveSeq`
		for k, b := range bounds {
			if a.Hi() <= b {
				hit = append(hit, int32(k))
				break
			}
		}
		ids[i] = -1
		if len(hit) > 0 {
			ids[i] = hit[0]
		}
		label := "AS" + a.String() // want `Addr.String in hot path resolveSeq` `string concatenation allocates per iteration in hot path resolveSeq`
		_ = label
	}
	return ids
}

// expand is a designated hot function: the best-first walk's per-child
// loop as the seed wrote it, a copied choice vector per child. Writing
// the child's cell into a slab the caller owns is the clean shape.
func expand(frontier *[][]int, slab [][32]uint8, choices []int, values int) {
	for ci := 0; ci < values; ci++ {
		child := make([]int, len(choices)+1) // want `make allocates per iteration in hot path expand`
		copy(child, choices)
		child[len(choices)] = ci
		*frontier = append(*frontier, child)
		slab[ci][len(choices)] = uint8(ci)
	}
}

// coldHelper is not in the hot table: identical constructs pass.
func coldHelper(targets []ip6.Addr) []string {
	var out []string
	for _, a := range targets {
		out = append(out, fmt.Sprintf("%s", a.String()))
	}
	return out
}

// goodHoisted shows the sanctioned shape: scratch allocated once
// before the loop, reused inside it.
func goodHoisted(targets []ip6.Addr) int {
	scratch := make([]byte, 0, 64)
	n := 0
	for _, a := range targets {
		scratch = scratch[:0]
		if a.Hi()|a.Lo() != 0 {
			n++
		}
	}
	return n + cap(scratch)
}
