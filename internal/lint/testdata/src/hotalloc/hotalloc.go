// Package hotalloc is the hotalloc fixture: the allocation regressions
// PRs 4-7 hunted by profile — per-probe Addr.String keys, fmt in
// responders, per-iteration scratch — written into a designated hot
// function (the analyzer runs with ScanColumns, MergeColumns, resolve,
// resolveSeq, expand, newProfile, fanOutWith, traceTargets, scanLanes,
// goodLanes, find, insert, Classify and tally of this package in its hot
// table), next to a cold function where the same constructs are fine and
// the hoisted patterns that keep hot paths clean.
package hotalloc

import (
	"fmt"

	"expanse/internal/ip6"
	"expanse/internal/wire"
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
				hit = append(hit, int32(k)) // want `append grows hit, declared inside the loop, per iteration in hot path resolveSeq`
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

// newProfile is a designated hot function: the per-machine profile
// derivation with a field's weight table rebuilt as a slice literal per
// draw. Package-level tables, their totals summed once, are the clean
// shape.
func newProfile(draws []float64) (wscale uint8) {
	for i, r := range draws {
		weights := []float64{0.5, 0.2, 0.15, 0.1, 0.05} // want `composite literal allocates per iteration in hot path newProfile`
		for k, w := range weights {
			if r -= w; r < 0 {
				wscale = uint8(k + i)
				break
			}
		}
	}
	return wscale
}

// fanOutWith is a designated hot function: the per-candidate fan-out with
// a result slice made per branch instead of written into the caller's
// window of the column.
func fanOutWith(out []ip6.Addr, hi uint64) {
	for i := range out {
		one := make([]ip6.Addr, 1) // want `make allocates per iteration in hot path fanOutWith`
		one[0] = ip6.AddrFromUint64(hi, uint64(i))
		out[i] = one[0]
	}
}

// hop stands in for netsim.Hop.
type hop struct {
	addr ip6.Addr
	asn  uint32
}

// traceTargets is a designated hot function: scamper's per-target loop
// as it was, a hop slice built and a scratch set made for every target.
// ORing hop references into masks the caller owns, and appending the few
// targets worth keeping to the caller's own slice, is the clean shape.
func traceTargets(targets []ip6.Addr, transit []uint64, subs []ip6.Addr) []ip6.Addr {
	for i, a := range targets {
		var path []hop
		path = append(path, hop{addr: a}) // want `append grows path, declared inside the loop, per iteration in hot path traceTargets`
		seen := ip6.NewSet(len(path))     // want `ip6.NewSet allocates a set per iteration in hot path traceTargets`
		for _, h := range path {
			dup := []hop(nil)
			dup = append(dup, h) // want `append grows dup, declared inside the loop, per iteration in hot path traceTargets`
			seen.Add(dup[0].addr)
		}
		transit[i/64] |= 1 << (i % 64)
		if a.Lo()&1 == 0 {
			subs = append(subs, a)
		}
	}
	return subs
}

// scanLanes is a designated hot function: the multi-lane scan's batch
// loop with the per-lane send-time scratch and the responder's view of
// the lanes rebuilt for every batch. One of each per shard, made before
// the loop and re-pointed per batch (as goodLanes does), is the clean
// shape.
func scanLanes(targets []ip6.Addr, protos []wire.Proto, outs []wire.ResultColumns, probe func([]ip6.Addr, []wire.Lane)) {
	for b := 0; b < len(targets); b += 512 {
		e := min(b+512, len(targets))
		ats := make([][]wire.Time, len(protos)) // want `make allocates per iteration in hot path scanLanes`
		for li := range ats {
			ats[li] = make([]wire.Time, e-b) // want `make allocates per iteration in hot path scanLanes`
		}
		lanes := []wire.Lane{{Proto: protos[0], At: ats[0], Out: &outs[0]}} // want `composite literal allocates per iteration in hot path scanLanes`
		probe(targets[b:e], lanes)
	}
}

// goodLanes is scanLanes' sanctioned shape, designated hot as well and
// clean: lane views and scratch made once, each batch only re-slicing
// them.
func goodLanes(targets []ip6.Addr, protos []wire.Proto, outs []wire.ResultColumns, probe func([]ip6.Addr, []wire.Lane)) {
	lanes := make([]wire.Lane, len(protos))
	ats := make([]wire.Time, len(protos)*512)
	for li, p := range protos {
		lanes[li] = wire.Lane{Proto: p, Out: &outs[li]}
	}
	for b := 0; b < len(targets); b += 512 {
		e := min(b+512, len(targets))
		for li := range lanes {
			lanes[li].At = ats[li*512:][:e-b]
		}
		probe(targets[b:e], lanes)
	}
}

// find is a designated hot function and clean: the address index's
// linear probe, one column compare per occupied slot and nothing
// allocated.
func find(index []uint32, hi []uint64, h, want uint64) (uint64, bool) {
	mask := uint64(len(index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := index[i]
		if p == 0 {
			return i, false
		}
		if hi[p-1] == want {
			return i, true
		}
	}
}

// insert is a designated hot function: a batch insert that dedups through
// a scratch Go map made per address, the map-backed store the index
// replaced. Probing the index the caller owns (find) is the clean shape.
func insert(hi []uint64, batch []ip6.Addr) []uint64 {
	for _, a := range batch {
		seen := map[ip6.Addr]bool{} // want `composite literal allocates per iteration in hot path insert`
		if !seen[a] {
			seen[a] = true
			hi = append(hi, a.Hi())
		}
	}
	return hi
}

// Classify is a designated hot function: the alias filter's per-address
// merge against its interval table, with a debug key built per address.
// Writing each flag into the column the caller sized is the clean shape.
func Classify(sorted, his []ip6.Addr, out []bool, trace map[string]bool) {
	ti := 0
	for i, a := range sorted {
		for ti < len(his) && his[ti].Less(a) {
			ti++
		}
		out[i] = ti < len(his)
		trace[a.String()] = out[i] // want `Addr.String in hot path Classify`
	}
}

// tally is a designated hot function: the fingerprint's per-address
// nybble count with each address's nybbles copied into a fresh slice.
// Reading them one at a time into the caller's histogram is the clean
// shape.
func tally(addrs []ip6.Addr, counts [][16]int) {
	for _, a := range addrs {
		nybbles := make([]byte, 32) // want `make allocates per iteration in hot path tally`
		for j := range nybbles {
			nybbles[j] = a.Nybble(j)
		}
		for j, v := range nybbles {
			counts[j][v]++
		}
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
