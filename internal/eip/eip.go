// Package eip reimplements Entropy/IP (Foremski, Plonka, Berger, IMC
// 2016) as used in §7 of the hitlist paper: it learns an addressing-
// scheme model from seed addresses — entropy-based segmentation of the
// address into nybble segments, per-segment value mining, and a Bayesian
// network (chain) over segment values — and generates candidate addresses.
//
// The generator implements the paper's §7.1 improvement: instead of
// random sampling, it walks the model exhaustively in probability order
// (best-first), so a constrained scanning budget is spent on the most
// probable addresses.
package eip

import (
	"math"
	"sort"
	"sync"

	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/stats"
)

// Segment is a run of consecutive nybbles with homogeneous entropy.
type Segment struct {
	Start, End int // nybble indexes, 0-based inclusive
	Entropy    float64
}

// Value is one mined value of a segment with its empirical probability.
type Value struct {
	Bits uint64 // the segment's nybbles packed MSB-first
	P    float64
}

// Model is a learned Entropy/IP model.
type Model struct {
	Segments []Segment
	// Values[s] are segment s's mined values, sorted by P descending.
	Values [][]Value
	// chain[s][pv] is the distribution over segment s's value indexes
	// given value pv of segment s-1 (Bayesian chain); contexts no seed
	// showed share the marginal. Segment 0 has the single row chain[0][0].
	chain [][]dist
	seeds *ip6.Set
}

// dist is a distribution with its log, taken once per model so the walk
// adds table entries instead of calling math.Log per child.
type dist struct{ p, log []float64 }

func newDist(p []float64) dist {
	d := dist{p, make([]float64, len(p))}
	for i, x := range p {
		d.log[i] = math.Log(x)
	}
	return d
}

// maxValuesPerSegment caps the mined value list; rarer values are dropped
// (the model focuses budget on probable addresses anyway). Value indexes
// therefore fit the walk's one-byte choice cells.
const maxValuesPerSegment = 64

// entropySplitThreshold starts a new segment when adjacent nybble
// entropies differ by more than this.
const entropySplitThreshold = 0.25

// maxSegmentLen bounds segment width so value spaces stay enumerable.
const maxSegmentLen = 4

// Build learns a model from seed addresses. It needs at least 2 seeds.
func Build(seeds []ip6.Addr) *Model {
	m := &Model{seeds: ip6.NewSet(len(seeds))}
	m.seeds.AddSlice(seeds)
	if len(seeds) == 0 {
		return m
	}

	// 1. Per-nybble entropy → segmentation.
	var ent [32]float64
	for j := 0; j < 32; j++ {
		var counts [16]int
		for _, a := range seeds {
			counts[a.Nybble(j)]++
		}
		ent[j] = stats.Entropy4(&counts)
	}
	start := 0
	for j := 1; j <= 32; j++ {
		if j == 32 || math.Abs(ent[j]-ent[j-1]) > entropySplitThreshold || j-start >= maxSegmentLen {
			seg := Segment{Start: start, End: j - 1}
			s := 0.0
			for k := start; k < j; k++ {
				s += ent[k]
			}
			seg.Entropy = s / float64(j-start)
			m.Segments = append(m.Segments, seg)
			start = j
		}
	}

	// 2. Value mining per segment.
	segVal := func(a ip6.Addr, s Segment) uint64 {
		v := uint64(0)
		for k := s.Start; k <= s.End; k++ {
			v = v<<4 | uint64(a.Nybble(k))
		}
		return v
	}
	valIdx := make([]map[uint64]int, len(m.Segments))
	for si, seg := range m.Segments {
		counts := map[uint64]int{}
		for _, a := range seeds {
			counts[segVal(a, seg)]++
		}
		type kv struct {
			v uint64
			c int
		}
		var all []kv
		for v, c := range counts {
			all = append(all, kv{v, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].v < all[j].v
		})
		if len(all) > maxValuesPerSegment {
			all = all[:maxValuesPerSegment]
		}
		kept := 0
		for _, e := range all {
			kept += e.c
		}
		vals := make([]Value, len(all))
		idx := make(map[uint64]int, len(all))
		for i, e := range all {
			vals[i] = Value{Bits: e.v, P: float64(e.c) / float64(kept)}
			idx[e.v] = i
		}
		m.Values = append(m.Values, vals)
		valIdx[si] = idx
	}

	// 3. Bayesian chain: P(value_s | value_{s-1}) with Laplace smoothing.
	m.chain = make([][]dist, len(m.Segments))
	for si := range m.Segments {
		p := make([]float64, len(m.Values[si]))
		for ci, v := range m.Values[si] {
			p[ci] = v.P
		}
		marginal := newDist(p)
		if si == 0 {
			m.chain[0] = []dist{marginal}
			continue
		}
		counts := make([][]float64, len(m.Values[si-1]))
		for _, a := range seeds {
			pv, ok1 := valIdx[si-1][segVal(a, m.Segments[si-1])]
			cv, ok2 := valIdx[si][segVal(a, m.Segments[si])]
			if !ok1 || !ok2 {
				continue
			}
			if counts[pv] == nil {
				counts[pv] = make([]float64, len(p))
			}
			counts[pv][cv]++
		}
		m.chain[si] = make([]dist, len(counts))
		for pv, row := range counts {
			if row == nil {
				m.chain[si][pv] = marginal
				continue
			}
			total := 0.0
			for i := range row {
				row[i]++ // Laplace
				total += row[i]
			}
			for i := range row {
				row[i] /= total
			}
			m.chain[si][pv] = newDist(row)
		}
	}
	return m
}

// node is a best-first search node, 16 bytes on the frontier heap; its
// depth segment choices sit in slab[slot].
type node struct {
	logP        float64
	slot, depth int32
}

// prefix holds one value index per segment: a segment is at least one
// nybble, so no model has more than 32.
type prefix [32]uint8

// walk is Generate's scratch: the frontier as a binary max-heap on logP,
// a slab of choice prefixes and the slab's free slots. A slot is freed
// when its node is popped or trimmed, so the slab never outgrows the
// frontier bound (maxFrontier plus one expansion); walks are pooled, so a
// warm Generate allocates only its result.
//
// Equal logP is pervasive (a Laplace-smoothed row is mostly one value),
// so which of two ties pops first is part of the output: push and pop
// make exactly the moves of container/heap's Push and Pop, and the trim
// leaves the prefix that sort.Sort over the same Less leaves (sortNodes,
// a frozen copy of its pdqsort). generateRef in ref_test.go is the
// oracle.
type walk struct {
	heap []node
	slab []prefix
	free []int32
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// expand pushes the children of the node (logP, p[:depth]): one per value
// of segment depth, whose log distribution given the node's last choice
// is row. Every model probability is positive (counts and Laplace terms
// are at least one), so no child is skipped.
func (w *walk) expand(logP float64, p *prefix, depth int32, row []float64) {
	for ci, lp := range row {
		slot := int32(len(w.slab))
		if n := len(w.free); n > 0 {
			slot, w.free = w.free[n-1], w.free[:n-1]
			w.slab[slot] = *p
		} else {
			w.slab = append(w.slab, *p)
		}
		w.slab[slot][depth] = uint8(ci)
		w.push(node{logP + lp, slot, depth + 1})
	}
}

func (w *walk) push(n node) {
	h := append(w.heap, n)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(n.logP > h[i].logP) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = n
	w.heap = h
}

func (w *walk) pop() node {
	top, last := w.heap[0], len(w.heap)-1
	w.heap[0] = w.heap[last]
	w.heap = w.heap[:last]
	if last > 0 {
		w.down(0)
	}
	return top
}

// down sifts heap[i] towards the leaves.
func (w *walk) down(i int) {
	h := w.heap
	x := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j2 := j + 1; j2 < len(h) && h[j2].logP > h[j].logP {
			j = j2
		}
		if !(h[j].logP > x.logP) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// trim drops all but the keep most probable frontier nodes. Only the
// kept prefix is sorted; sorted descending, it is already a max-heap. The
// dropped nodes only return their slots to the free list, and slot
// numbers never enter a comparison.
func (w *walk) trim(keep int) {
	sortNodes(w.heap, keep)
	for _, n := range w.heap[keep:] {
		w.free = append(w.free, n.slot)
	}
	w.heap = w.heap[:keep]
}

// Generate walks the model exhaustively in probability order and returns
// up to budget addresses, most probable first. Seed addresses are
// excluded (the point is learning NEW addresses).
func (m *Model) Generate(budget int) []ip6.Addr {
	if budget <= 0 || len(m.Segments) == 0 {
		return nil
	}
	w := walkPool.Get().(*walk)
	defer walkPool.Put(w)
	w.heap, w.slab, w.free = w.heap[:0], w.slab[:0], w.free[:0]
	// One allocation at the study's budgets; larger ones grow by append.
	out := make([]ip6.Addr, 0, min(budget, 4096))
	// Beam-bound the frontier so generation stays near-linear in budget.
	maxFrontier := budget*8 + 1024

	var p prefix
	w.expand(0, &p, 0, m.chain[0][0].log)
	for len(w.heap) > 0 && len(out) < budget {
		n := w.pop()
		p = w.slab[n.slot]
		w.free = append(w.free, n.slot)
		if int(n.depth) == len(m.Segments) {
			if a := m.assemble(&p); !m.seeds.Contains(a) {
				out = append(out, a)
			}
			continue
		}
		w.expand(n.logP, &p, n.depth, m.chain[n.depth][p[n.depth-1]].log)
		// Trim the frontier: drop the least probable half when oversized.
		if len(w.heap) > maxFrontier {
			w.trim(maxFrontier / 2)
		}
	}
	return out
}

// assemble builds the address for a full choice vector.
func (m *Model) assemble(choices *prefix) ip6.Addr {
	var nyb [32]byte
	for si, seg := range m.Segments {
		v := m.Values[si][choices[si]].Bits
		for k := seg.End; k >= seg.Start; k-- {
			nyb[k] = byte(v & 0xf)
			v >>= 4
		}
	}
	return ip6.AddrFromNybbles(nyb)
}

// RandomGenerate is the pre-§7.1 baseline: it samples the chain randomly
// instead of walking it exhaustively, for the ablation benchmark.
func (m *Model) RandomGenerate(budget int, seed int64) []ip6.Addr {
	if budget <= 0 || len(m.Segments) == 0 {
		return nil
	}
	rng := newSplitMix(uint64(seed))
	seen := make(map[ip6.Addr]bool, budget)
	var out []ip6.Addr
	attempts := 0
	var choices prefix // every segment's cell is rewritten per attempt
	for len(out) < budget && attempts < budget*30 {
		attempts++
		prev := 0
		for si := range m.Segments {
			r := float64(rng.next()>>11) / float64(1<<53)
			acc := 0.0
			pick := -1
			for ci, p := range m.chain[si][prev].p {
				acc += p
				if r < acc {
					pick = ci
					break
				}
			}
			if pick < 0 {
				pick = len(m.Values[si]) - 1 // rounding left r above the sum
			}
			choices[si] = uint8(pick)
			prev = pick
		}
		a := m.assemble(&choices)
		if m.seeds.Contains(a) || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return hash64.Mix(r.s)
}
