package eip

import (
	"container/heap"
	"math"
	"sort"

	"expanse/internal/ip6"
)

// This file is the oracle for the best-first walk: the seed's
// container/heap generator, one heap object and one copied choice vector
// per node, math.Log and condP per child. Generate must return the same
// addresses in the same order — ties in logP included.

// walk's sort.Interface: sort.Sort over it is the oracle of sortNodes,
// the trim's frozen pdqsort (FuzzTrimOrder, BenchmarkTrim).
func (w *walk) Len() int           { return len(w.heap) }
func (w *walk) Less(i, j int) bool { return w.heap[i].logP > w.heap[j].logP }
func (w *walk) Swap(i, j int)      { w.heap[i], w.heap[j] = w.heap[j], w.heap[i] }

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

// generateRef also reports how often it trimmed the frontier, so a test
// can prove its fixture reaches the trim.
func (m *Model) generateRef(budget int) (out []ip6.Addr, trims int) {
	if budget <= 0 || len(m.Segments) == 0 {
		return nil, 0
	}
	q := &pqueue{}
	maxFrontier := budget*8 + 1024

	for ci := range m.Values[0] {
		heap.Push(q, &partial{logP: math.Log(m.Values[0][ci].P), choices: []int{ci}})
	}
	for q.Len() > 0 && len(out) < budget {
		node := heap.Pop(q).(*partial)
		depth := len(node.choices)
		if depth == len(m.Segments) {
			var cells prefix
			for i, c := range node.choices {
				cells[i] = uint8(c)
			}
			a := m.assemble(&cells)
			if !m.seeds.Contains(a) {
				out = append(out, a)
			}
			continue
		}
		prev := node.choices[depth-1]
		for ci := range m.Values[depth] {
			p := m.chain[depth][prev].p[ci]
			if p <= 0 {
				continue
			}
			child := &partial{
				logP:    node.logP + math.Log(p),
				choices: append(append([]int(nil), node.choices...), ci),
			}
			heap.Push(q, child)
		}
		if q.Len() > maxFrontier {
			sort.Sort(*q)
			*q = (*q)[:maxFrontier/2]
			heap.Init(q)
			trims++
		}
	}
	return out, trims
}
