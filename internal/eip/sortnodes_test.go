package eip

import (
	"math/rand"
	"sort"
	"testing"
)

// trimInput draws n frontier nodes whose logP takes one of distinct
// values (ties everywhere, as Laplace smoothing makes them) and whose
// slots number the nodes, so a test can tell equal-logP nodes apart.
// shape 0 leaves them in draw order, 1 in the order the walk's pushes
// leave a max-heap, 2 sorted descending with a few swaps.
func trimInput(seed int64, n, distinct, shape int) []node {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, distinct)
	for i := range vals {
		vals[i] = -rng.Float64() * 40
	}
	h := make([]node, n)
	for i := range h {
		h[i] = node{vals[rng.Intn(distinct)], int32(i), int32(rng.Intn(32))}
	}
	switch shape {
	case 1:
		w := &walk{}
		for _, x := range h {
			w.push(x)
		}
		h = w.heap
	case 2:
		sort.Sort(&walk{heap: h})
		for k := 0; k < 1+n/512 && n > 1; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			h[i], h[j] = h[j], h[i]
		}
	}
	return h
}

// FuzzTrimOrder pins sortNodes, the trim's frozen pdqsort, against
// sort.Sort itself over tie-heavy frontiers: the kept prefix must be the
// same nodes in the same order (slots included), and a max-heap. If the
// toolchain's sort.Sort ever moves ties differently, this fails here and
// in TestGenerateMatchesRef instead of the goldens drifting.
func FuzzTrimOrder(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint16(0), uint8(0))
	f.Add(int64(2), uint16(1), uint8(3), uint16(1), uint8(1))
	f.Add(int64(3), uint16(13), uint8(2), uint16(6), uint8(0))
	f.Add(int64(4), uint16(200), uint8(0), uint16(100), uint8(2))
	f.Add(int64(5), uint16(9040), uint8(39), uint16(4512), uint8(1)) // the study's shape
	f.Add(int64(6), uint16(20000), uint8(63), uint16(19999), uint8(0))
	f.Add(int64(7), uint16(20000), uint8(0), uint16(17), uint8(1))
	f.Add(int64(8), uint16(5000), uint8(7), uint16(5000), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, d uint8, k16 uint16, shape uint8) {
		n := int(n16) % 20001
		keep := int(k16) % (n + 1)
		h := trimInput(seed, n, 1+int(d)%64, int(shape)%3)
		want := &walk{heap: append([]node(nil), h...)}
		sort.Sort(want)
		sortNodes(h, keep)
		for i := 0; i < keep; i++ {
			if h[i] != want.heap[i] {
				t.Fatalf("n=%d keep=%d: node %d is %+v, sort.Sort has %+v", n, keep, i, h[i], want.heap[i])
			}
			if i > 0 && h[(i-1)/2].logP < h[i].logP {
				t.Fatalf("n=%d keep=%d: kept prefix is no max-heap at %d", n, keep, i)
			}
		}
	})
}

var sinkNodes []node

// BenchmarkTrim sorts one frontier at the §7 study's trim shape — budget
// 1000, so maxFrontier 9,024 plus one 16-child expansion, 40 distinct
// logP values, heap-ordered — keeping half, through sort.Sort (the
// oracle), the frozen pdqsort in full, and the frozen pdqsort stopping
// at keep (the trim). Each op copies the input first.
func BenchmarkTrim(b *testing.B) {
	const maxFrontier = 1000*8 + 1024
	in := trimInput(1, maxFrontier+16, 40, 1)
	keep := maxFrontier / 2
	h := make([]node, len(in))
	for _, bc := range []struct {
		name string
		sort func()
	}{
		{"sort.Sort", func() { sort.Sort(&walk{heap: h}) }},
		{"sortNodes-full", func() { sortNodes(h, len(h)) }},
		{"sortNodes-keep", func() { sortNodes(h, keep) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(h, in)
				bc.sort()
			}
			sinkNodes = h
		})
	}
}
