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
	"container/heap"
	"math"
	"sort"

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
	// trans[s] maps a value index of segment s-1 to the conditional
	// distribution over segment s's value indexes (Bayesian chain).
	trans []map[int][]float64
	seeds map[ip6.Addr]bool
}

// maxValuesPerSegment caps the mined value list; rarer values are dropped
// (the model focuses budget on probable addresses anyway).
const maxValuesPerSegment = 64

// entropySplitThreshold starts a new segment when adjacent nybble
// entropies differ by more than this.
const entropySplitThreshold = 0.25

// maxSegmentLen bounds segment width so value spaces stay enumerable.
const maxSegmentLen = 4

// Build learns a model from seed addresses. It needs at least 2 seeds.
func Build(seeds []ip6.Addr) *Model {
	m := &Model{seeds: make(map[ip6.Addr]bool, len(seeds))}
	for _, a := range seeds {
		m.seeds[a] = true
	}
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
	m.trans = make([]map[int][]float64, len(m.Segments))
	for si := 1; si < len(m.Segments); si++ {
		counts := map[int][]float64{}
		for _, a := range seeds {
			pv, ok1 := valIdx[si-1][segVal(a, m.Segments[si-1])]
			cv, ok2 := valIdx[si][segVal(a, m.Segments[si])]
			if !ok1 || !ok2 {
				continue
			}
			row := counts[pv]
			if row == nil {
				row = make([]float64, len(m.Values[si]))
				counts[pv] = row
			}
			row[cv]++
		}
		for _, row := range counts {
			total := 0.0
			for i := range row {
				row[i]++ // Laplace
				total += row[i]
			}
			for i := range row {
				row[i] /= total
			}
		}
		m.trans[si] = counts
	}
	return m
}

// condP returns P(value cv of segment si | value pv of segment si-1),
// falling back to the marginal when the context was never seen.
func (m *Model) condP(si, pv, cv int) float64 {
	if si == 0 {
		return m.Values[0][cv].P
	}
	if row, ok := m.trans[si][pv]; ok {
		return row[cv]
	}
	return m.Values[si][cv].P
}

// partial is a best-first search node: a prefix of segment choices.
type partial struct {
	logP    float64
	choices []int // value index per segment, len = depth
}

type pqueue []*partial

func (q pqueue) Len() int           { return len(q) }
func (q pqueue) Less(i, j int) bool { return q[i].logP > q[j].logP }
func (q pqueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pqueue) Push(x any)        { *q = append(*q, x.(*partial)) }
func (q *pqueue) Pop() any          { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }

// Generate walks the model exhaustively in probability order and returns
// up to budget addresses, most probable first. Seed addresses are
// excluded (the point is learning NEW addresses).
func (m *Model) Generate(budget int) []ip6.Addr {
	if budget <= 0 || len(m.Segments) == 0 {
		return nil
	}
	var out []ip6.Addr
	q := &pqueue{}
	// Beam-bound the frontier so generation stays near-linear in budget.
	maxFrontier := budget*8 + 1024

	for ci := range m.Values[0] {
		heap.Push(q, &partial{logP: math.Log(m.Values[0][ci].P), choices: []int{ci}})
	}
	for q.Len() > 0 && len(out) < budget {
		node := heap.Pop(q).(*partial)
		depth := len(node.choices)
		if depth == len(m.Segments) {
			a := m.assemble(node.choices)
			if !m.seeds[a] {
				out = append(out, a)
			}
			continue
		}
		prev := node.choices[depth-1]
		for ci := range m.Values[depth] {
			p := m.condP(depth, prev, ci)
			if p <= 0 {
				continue
			}
			child := &partial{
				logP:    node.logP + math.Log(p),
				choices: append(append([]int(nil), node.choices...), ci),
			}
			heap.Push(q, child)
		}
		// Trim the frontier: drop the least probable half when oversized.
		if q.Len() > maxFrontier {
			sort.Sort(*q) // heap order is partial; full sort then cut
			*q = (*q)[:maxFrontier/2]
			heap.Init(q)
		}
	}
	return out
}

// assemble builds the address for a full choice vector.
func (m *Model) assemble(choices []int) ip6.Addr {
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
	for len(out) < budget && attempts < budget*30 {
		attempts++
		choices := make([]int, len(m.Segments))
		prev := 0
		ok := true
		for si := range m.Segments {
			r := float64(rng.next()>>11) / float64(1<<53)
			acc := 0.0
			pick := -1
			for ci := range m.Values[si] {
				acc += m.condP(si, prev, ci)
				if r < acc {
					pick = ci
					break
				}
			}
			if pick < 0 {
				pick = len(m.Values[si]) - 1
			}
			if pick < 0 {
				ok = false
				break
			}
			choices[si] = pick
			prev = pick
		}
		if !ok {
			continue
		}
		a := m.assemble(choices)
		if m.seeds[a] || seen[a] {
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
