package ip6

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"expanse/internal/hash64"
)

// refSet is the plain-map reference the property tests compare against.
type refSet map[Addr]struct{}

func (r refSet) add(a Addr) bool {
	if _, ok := r[a]; ok {
		return false
	}
	r[a] = struct{}{}
	return true
}

func (r refSet) sorted() []Addr {
	out := make([]Addr, 0, len(r))
	for a := range r {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func addrsEqual(a, b []Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardSetVsReference drives a ShardSet and a reference map through
// the same randomized mixed workload (Add, AddSlice with duplicates,
// Contains, Sorted) and requires identical observable state throughout.
func TestShardSetVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewShardSetWorkers(0, 0)
	ref := refSet{}
	pool := randAddrs(2000, 11)
	for step := 0; step < 200; step++ {
		switch step % 4 {
		case 0: // single adds
			for i := 0; i < 20; i++ {
				a := pool[rng.Intn(len(pool))]
				if s.Add(a) != ref.add(a) {
					t.Fatalf("step %d: Add(%v) disagreement", step, a)
				}
			}
		case 1: // batch with intra-batch duplicates
			batch := make([]Addr, 0, 60)
			for i := 0; i < 30; i++ {
				a := pool[rng.Intn(len(pool))]
				batch = append(batch, a, a)
			}
			wantNew := 0
			for _, a := range batch {
				if ref.add(a) {
					wantNew++
				}
			}
			if got := s.AddSlice(batch); got != wantNew {
				t.Fatalf("step %d: AddSlice new = %d, want %d", step, got, wantNew)
			}
		case 2: // membership probes
			for i := 0; i < 50; i++ {
				a := pool[rng.Intn(len(pool))]
				_, want := ref[a]
				if s.Contains(a) != want {
					t.Fatalf("step %d: Contains(%v) = %v, want %v", step, a, !want, want)
				}
			}
		case 3: // sorted view equivalence mid-stream
			if !addrsEqual(s.Sorted(), ref.sorted()) {
				t.Fatalf("step %d: sorted view diverged", step)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
	}
}

// TestShardSetAcrossWorkers pins worker-count independence: the same
// insertion history must yield identical Len, new-counts, Sorted views
// and Each order for workers 1, 4 and 16.
func TestShardSetAcrossWorkers(t *testing.T) {
	batch1 := randAddrs(5000, 3)
	batch2 := randAddrs(5000, 4) // overlaps pool space of batch1? distinct seeds → mostly disjoint
	batch2 = append(batch2, batch1[:1000]...)

	type snapshot struct {
		new1, new2 int
		sorted     []Addr
		each       []Addr
	}
	build := func(workers int) snapshot {
		s := NewShardSetWorkers(0, workers)
		n1 := s.AddSlice(batch1)
		n2 := s.AddSlice(batch2)
		var each []Addr
		s.Each(func(a Addr) bool { each = append(each, a); return true })
		return snapshot{new1: n1, new2: n2, sorted: s.Sorted(), each: each}
	}
	ref := build(1)
	for _, w := range []int{4, 16} {
		got := build(w)
		if got.new1 != ref.new1 || got.new2 != ref.new2 {
			t.Errorf("workers=%d: new counts (%d,%d), want (%d,%d)", w, got.new1, got.new2, ref.new1, ref.new2)
		}
		if !addrsEqual(got.sorted, ref.sorted) {
			t.Errorf("workers=%d: sorted view differs", w)
		}
		if !addrsEqual(got.each, ref.each) {
			t.Errorf("workers=%d: Each order differs", w)
		}
	}
}

// TestShardSetSortedInvalidation pins the caching contract: repeated
// Sorted calls without writes return the same cached slice; any
// interleaved write invalidates it and the next Sorted reflects the new
// contents.
func TestShardSetSortedInvalidation(t *testing.T) {
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(randAddrs(300, 9))
	v1 := s.Sorted()
	v2 := s.Sorted()
	if &v1[0] != &v2[0] || len(v1) != len(v2) {
		t.Error("Sorted without writes must return the cached slice")
	}
	extra := MustParseAddr("2001:db8:ffff::1")
	if s.Contains(extra) {
		t.Fatal("test address already present")
	}
	s.Add(extra)
	v3 := s.Sorted()
	if len(v3) != len(v1)+1 {
		t.Fatalf("post-write sorted len = %d, want %d", len(v3), len(v1)+1)
	}
	found := false
	for _, a := range v3 {
		if a == extra {
			found = true
		}
	}
	if !found {
		t.Error("sorted view missing address added after cache build")
	}
	if !sort.SliceIsSorted(v3, func(i, j int) bool { return v3[i].Less(v3[j]) }) {
		t.Error("rebuilt view not sorted")
	}
	// Duplicate insertion must NOT invalidate (no mutation happened).
	v4 := s.Sorted()
	s.Add(extra)
	v5 := s.Sorted()
	if &v4[0] != &v5[0] {
		t.Error("duplicate Add invalidated the cache")
	}
	// Interleaved batch writes across several epochs.
	ref := refSet{}
	for _, a := range v5 {
		ref.add(a)
	}
	rng := rand.New(rand.NewSource(21))
	for epoch := 0; epoch < 5; epoch++ {
		batch := randAddrs(100, int64(100+epoch))
		for i := range batch {
			if rng.Intn(2) == 0 {
				batch[i] = v5[rng.Intn(len(v5))] // mix in duplicates
			}
		}
		s.AddSlice(batch)
		for _, a := range batch {
			ref.add(a)
		}
		if !addrsEqual(s.Sorted(), ref.sorted()) {
			t.Fatalf("epoch %d: sorted view diverged after interleaved writes", epoch)
		}
	}
}

func TestShardSetSortedSeq(t *testing.T) {
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(randAddrs(500, 6))
	seq, sorted := s.SortedSeq(), s.Sorted()
	if len(seq) != s.Len() || !addrsEqual(seq, sorted) {
		t.Fatalf("SortedSeq has %d addresses, Sorted %d, Len %d", len(seq), len(sorted), s.Len())
	}
}

// TestShardSetConcurrentReadersAndWriters exercises the locking story
// under -race: batch writers, point writers, membership readers, Each
// walkers and Sorted rebuilders all at once.
func TestShardSetConcurrentReadersAndWriters(t *testing.T) {
	s := NewShardSetWorkers(0, 0)
	pool := randAddrs(4000, 8)
	s.AddSlice(pool[:1000])
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.AddSlice(pool[g*1000 : (g+1)*1000])
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Contains(pool[(g*997+i)%len(pool)])
			}
		}(g)
		wg.Add(1)
		go func(int) {
			defer wg.Done()
			n := 0
			s.Each(func(Addr) bool { n++; return true })
			_ = s.Sorted()
		}(g)
	}
	wg.Wait()
	if s.Len() != len(refSetOf(pool)) {
		t.Errorf("Len = %d after concurrent writes, want %d", s.Len(), len(refSetOf(pool)))
	}
	if !addrsEqual(s.Sorted(), refSetOf(pool).sorted()) {
		t.Error("final sorted view wrong after concurrent writes")
	}
}

func refSetOf(addrs []Addr) refSet {
	r := refSet{}
	for _, a := range addrs {
		r.add(a)
	}
	return r
}

// TestSortColumnsProperty pins sortAddrs, and Sort's run-and-merge
// fan-out over 2, 3, 5 and 8 workers (odd run counts included), against
// slices.SortFunc over sizes up to 5,000 and the input shapes that break
// quicksorts: random with dense duplicates, duplicate-free, presorted (sorted source batches
// make presorted tails common), reverse, all-equal hi words and organ
// pipes.
func TestSortColumnsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []struct {
		name string
		gen  func(n int) []Addr
	}{
		{"duplicates", func(n int) []Addr {
			out := make([]Addr, n)
			for i := range out {
				out[i] = AddrFromUint64(uint64(rng.Intn(8)), uint64(rng.Intn(64)))
			}
			return out
		}},
		{"distinct", func(n int) []Addr {
			out := make([]Addr, n)
			for i, k := range rng.Perm(n) {
				out[i] = AddrFromUint64(uint64(k>>4), uint64(k))
			}
			return out
		}},
		{"presorted", func(n int) []Addr {
			out := randAddrs(n, rng.Int63())
			slices.SortFunc(out, Addr.Compare)
			return out
		}},
		{"reverse", func(n int) []Addr {
			out := randAddrs(n, rng.Int63())
			slices.SortFunc(out, func(x, y Addr) int { return y.Compare(x) })
			return out
		}},
		{"equal-hi", func(n int) []Addr {
			out := make([]Addr, n)
			for i := range out {
				out[i] = AddrFromUint64(0x2001_0db8, rng.Uint64())
			}
			return out
		}},
		{"organ-pipe", func(n int) []Addr {
			out := make([]Addr, n)
			for i := range out {
				k := uint64(min(i, n-1-i))
				out[i] = AddrFromUint64(k>>3, k)
			}
			return out
		}},
	}
	for _, shape := range shapes {
		for trial := 0; trial < 12; trial++ {
			n := rng.Intn(5001)
			if trial < 4 {
				n = []int{0, 1, 17, 5000}[trial]
			}
			got := shape.gen(n)
			want := slices.Clone(got)
			slices.SortFunc(want, Addr.Compare)
			for _, w := range []int{2, 3, 5, 8} {
				par := slices.Clone(got)
				sortParallel(par, w, 16)
				if !slices.Equal(par, want) {
					t.Fatalf("%s, n=%d: sortParallel on %d workers disagrees with slices.SortFunc", shape.name, n, w)
				}
			}
			sortAddrs(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: sortAddrs disagrees with slices.SortFunc", shape.name, n)
			}
		}
	}
}

// benchAddrs builds a deterministic synthetic hitlist of n addresses.
func benchAddrs(n int) []Addr {
	out := make([]Addr, n)
	x := uint64(0x16c18)
	for i := range out {
		x = hash64.Mix(x + 0x9e3779b97f4a7c15)
		out[i] = AddrFromUint64(0x2001_0db8_0000_0000|x>>40, x)
	}
	return out
}

// BenchmarkLegacySetSorted is the pre-refactor baseline: one global map,
// full materialize + sort per consumer (what every stage used to pay).
func BenchmarkLegacySetSorted(b *testing.B) {
	const n = 1 << 20
	s := NewSet(n)
	s.AddSlice(benchAddrs(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Sorted()) != n {
			b.Fatal("bad sort")
		}
	}
}

// BenchmarkLegacySetAddSlice is the pre-refactor baseline for batch
// insert + dedup into the single global map.
func BenchmarkLegacySetAddSlice(b *testing.B) {
	const n = 1 << 20
	addrs := benchAddrs(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSet(n)
		s.AddSlice(addrs[:n/2])
		s.AddSlice(addrs)
		if s.Len() != n {
			b.Fatal("bad dedup")
		}
	}
}

// BenchmarkShardSetAddSlice measures parallel batch insert + dedup at
// hitlist scale (half the batch duplicates an earlier epoch).
func BenchmarkShardSetAddSlice(b *testing.B) {
	const n = 1 << 20
	addrs := benchAddrs(n)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewShardSetWorkers(n, w)
				s.AddSlice(addrs[:n/2])
				s.AddSlice(addrs) // second epoch: 50% duplicates
				if s.Len() != n {
					b.Fatal("bad dedup")
				}
			}
		})
	}
}

// BenchmarkShardSetContains measures point membership on a compacted
// 2^20-address set, the shape the generation and rDNS studies query
// after collection: hits over the members, misses over as many absent
// addresses. ns/op is one lookup.
func BenchmarkShardSetContains(b *testing.B) {
	const n = 1 << 20
	addrs := benchAddrs(2 * n)
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(addrs[:n])
	s.Compact()
	for _, c := range []struct {
		name  string
		query []Addr
	}{{"hit", addrs[:n]}, {"miss", addrs[n:]}} {
		want := c.name == "hit"
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s.Contains(c.query[i&(n-1)]) != want {
					b.Fatal("wrong membership")
				}
			}
		})
	}
}

// BenchmarkHitlistSorted measures sorted-view construction (Sort over the
// copied shards) over a 2^20-address hitlist: the build on a
// fresh set (cold), the rebuild after one insertion invalidates the cache
// (warm-invalidate: a full rebuild, the view is not kept incrementally)
// and the cached read.
func BenchmarkHitlistSorted(b *testing.B) {
	const n = 1 << 20
	addrs := benchAddrs(n)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cold/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewShardSetWorkers(n, w)
				s.AddSlice(addrs)
				b.StartTimer()
				if len(s.Sorted()) != n {
					b.Fatal("bad sort")
				}
			}
		})
	}
	b.Run("warm-invalidate", func(b *testing.B) {
		s := NewShardSetWorkers(n, 0)
		s.AddSlice(addrs)
		s.Sorted()
		x := uint64(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(AddrFromUint64(0xfd00, x))
			x++
			s.Sorted()
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := NewShardSetWorkers(n, 0)
		s.AddSlice(addrs)
		s.Sorted()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.Sorted()) != s.Len() {
				b.Fatal("cache miss")
			}
		}
	})
}
