package ip6

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// checkIndex verifies one shard's membership index against its
// insertion slice: the table is empty or a power of two at load ≤ ¾, and
// it holds every position exactly once, where a probe for that address
// finds it.
func checkIndex(t testing.TB, si int, sh *shard) {
	t.Helper()
	slots := len(sh.index)
	if slots != 0 && bits.OnesCount(uint(slots)) != 1 {
		t.Fatalf("shard %d: %d index slots, not a power of two", si, slots)
	}
	if len(sh.addrs)*4 > slots*3 {
		t.Fatalf("shard %d: %d addresses in %d slots, load above 3/4", si, len(sh.addrs), slots)
	}
	seen := make([]bool, len(sh.addrs))
	for _, p := range sh.index {
		if p == 0 {
			continue
		}
		pos := p & posMask
		if pos == 0 || int(pos) > len(sh.addrs) || seen[pos-1] {
			t.Fatalf("shard %d: index slot holds bad or repeated position %d", si, pos)
		}
		if a := sh.addrs[pos-1]; p&^posMask != slotTag(a.Hash64()>>shardBits) {
			t.Fatalf("shard %d: slot of position %d carries tag %#x, its address's is %#x", si, pos, p>>posBits, slotTag(a.Hash64()>>shardBits)>>posBits)
		}
		seen[pos-1] = true
	}
	for p, a := range sh.addrs {
		h := a.Hash64() >> shardBits
		slot, ok := sh.find(a, h)
		if !seen[p] || !ok || sh.index[slot] != slotTag(h)|(uint32(p)+1) {
			t.Fatalf("shard %d: position %d is not indexed where a probe finds it", si, p)
		}
	}
}

// sameSet fails unless s and twin are observably one set — Len, the
// sorted view, Each order, membership over pool — with identical
// per-shard indexes and insertion slices; only slice capacity may
// differ.
func sameSet(t *testing.T, s, twin *ShardSet, pool []Addr) {
	t.Helper()
	if s.Len() != twin.Len() {
		t.Fatalf("Len = %d, twin has %d", s.Len(), twin.Len())
	}
	if !addrsEqual(s.Sorted(), twin.Sorted()) {
		t.Fatal("sorted views differ")
	}
	var each, twinEach []Addr
	s.Each(func(a Addr) bool { each = append(each, a); return true })
	twin.Each(func(a Addr) bool { twinEach = append(twinEach, a); return true })
	if !addrsEqual(each, twinEach) {
		t.Fatal("Each orders differ")
	}
	for _, a := range pool {
		if s.Contains(a) != twin.Contains(a) {
			t.Fatalf("Contains(%v) differs", a)
		}
	}
	for i := range s.shards {
		sh, tw := &s.shards[i], &twin.shards[i]
		if !slices.Equal(sh.index, tw.index) || !slices.Equal(sh.addrs, tw.addrs) {
			t.Fatalf("shard %d: index or insertion slices differ", i)
		}
	}
}

// TestShardSetCompactMembership pins that Compact changes slice capacity
// only: a set compacted between writes and a twin that never is stay one
// set at every step — same Len, Contains, Sorted, Each order and index —
// and every Add after a compaction answers as on the twin and on the
// reference map.
func TestShardSetCompactMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := randAddrs(4000, 17)
	s, twin := NewShardSetWorkers(0, 0), NewShardSetWorkers(0, 0)
	ref := refSet{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 800; i++ {
			a := pool[rng.Intn(len(pool))]
			got, want := s.Add(a), ref.add(a)
			if twin.Add(a) != want || got != want {
				t.Fatalf("round %d: Add(%v) = %v, want %v", round, a, got, want)
			}
		}
		s.Compact()
		for i := range s.shards {
			if sh := &s.shards[i]; cap(sh.addrs) != len(sh.addrs) {
				t.Fatalf("round %d shard %d: Compact left slice slack", round, i)
			}
		}
		sameSet(t, s, twin, pool)
		if !addrsEqual(s.Sorted(), ref.sorted()) {
			t.Fatalf("round %d: sorted view diverged from the reference", round)
		}
	}
}

// TestShardSetCompactBatch is the batch half: AddSlice with in-batch and
// cross-batch duplicates returns the same new-count on a set compacted
// before each batch as on its never-compacted twin and the reference.
func TestShardSetCompactBatch(t *testing.T) {
	pool := randAddrs(6000, 23)
	s, twin := NewShardSetWorkers(0, 0), NewShardSetWorkers(0, 0)
	ref := refSet{}
	for _, r := range [][2]int{{0, 4000}, {1000, 5000}, {3000, 6000}, {0, 6000}} {
		batch := append(append([]Addr(nil), pool[r[0]:r[1]]...), pool[r[0]:r[0]+500]...)
		wantNew := 0
		for _, a := range batch {
			if ref.add(a) {
				wantNew++
			}
		}
		s.Compact()
		if got, tw := s.AddSlice(batch), twin.AddSlice(batch); got != wantNew || tw != wantNew {
			t.Fatalf("AddSlice(pool[%d:%d]) new = %d (twin %d), want %d", r[0], r[1], got, tw, wantNew)
		}
		sameSet(t, s, twin, pool)
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged from the reference")
	}
}

// TestShardSetCompactFreeze pins the epoch-snapshot interaction: Compact
// neither rebuilds the cached sorted view nor disturbs a FrozenView taken
// before it, and views taken before later writes keep exactly their
// addresses.
func TestShardSetCompactFreeze(t *testing.T) {
	pool := randAddrs(3000, 29)
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(pool[:2000])
	fv := s.Freeze()
	want := append([]Addr(nil), fv.Sorted()...)
	s.Compact()
	if got := s.Sorted(); &got[0] != &fv.Sorted()[0] {
		t.Fatal("Compact rebuilt the cached sorted view")
	}
	s.AddSlice(pool[1000:])
	s.Compact()
	if fv.Len() != len(want) || !addrsEqual(fv.Sorted(), want) {
		t.Fatal("a FrozenView taken before Compact changed")
	}
	for _, a := range pool[2000:2200] {
		if fv.Contains(a) || !s.Contains(a) {
			t.Fatalf("address %v: frozen view sees a later write, or the set lost it", a)
		}
	}
}

// TestShardSetMemBytes pins the accounting as exact: the index is 4 bytes
// per slot over power-of-two tables at load ≤ ¾, the sorted view 16 bytes
// per cached address, the columns 16 bytes per address once Compact has
// clipped them, and the total their sum.
func TestShardSetMemBytes(t *testing.T) {
	s := NewShardSetWorkers(0, 0)
	for k := int64(0); k < 10; k++ {
		s.AddSlice(randAddrs(1000, 31+k))
	}
	s.Sorted()
	total, index, cols, sorted := s.MemBytes()
	if total != index+cols+sorted {
		t.Fatalf("total %d != %d+%d+%d", total, index, cols, sorted)
	}
	slots := 0
	for i := range s.shards {
		checkIndex(t, i, &s.shards[i])
		slots += len(s.shards[i].index)
	}
	if want := int64(slots) * 4; index != want {
		t.Fatalf("index accounting = %d, want 4 B × %d slots = %d", index, slots, want)
	}
	if want := int64(s.Len()) * 16; sorted != want || cols < want {
		t.Fatalf("sorted view %d (want %d), columns %d (want ≥ %d)", sorted, want, cols, want)
	}
	s.Compact()
	total2, index2, cols2, sorted2 := s.MemBytes()
	if want := int64(s.Len()) * 16; cols2 != want {
		t.Fatalf("post-compact column accounting = %d, want exact %d (was %d)", cols2, want, cols)
	}
	if index2 != index || sorted2 != sorted || total2 != index2+cols2+sorted2 {
		t.Fatalf("Compact changed index (%d→%d) or sorted-view (%d→%d) accounting", index, index2, sorted, sorted2)
	}
}

// TestShardSetCompactCols pins the benchmark harness's older name for
// Compact to Compact itself: the two leave twin sets identical, down to
// accounting.
func TestShardSetCompactCols(t *testing.T) {
	pool := randAddrs(5000, 37)
	s, twin := NewShardSetWorkers(0, 0), NewShardSetWorkers(0, 0)
	for _, a := range pool[:3500] {
		s.Add(a)
		twin.Add(a)
	}
	s.Compact()
	twin.CompactCols()
	sameSet(t, s, twin, pool)
	t1, i1, c1, s1 := s.MemBytes()
	t2, i2, c2, s2 := twin.MemBytes()
	if t1 != t2 || i1 != i2 || c1 != c2 || s1 != s2 {
		t.Fatalf("MemBytes after Compact (%d,%d,%d,%d) and CompactCols (%d,%d,%d,%d) differ", t1, i1, c1, s1, t2, i2, c2, s2)
	}
}

// TestShardSetIndexGrowth inserts into one shard across many index
// doublings — single adds and duplicate-heavy batches, with Compact in
// between — and matches the reference map after every step.
func TestShardSetIndexGrowth(t *testing.T) {
	var own, other []Addr
	for _, a := range benchAddrs(1 << 18) {
		if shardOf(a) == 0 {
			own = append(own, a)
		} else if len(other) < 200 {
			other = append(other, a)
		}
	}
	rng := rand.New(rand.NewSource(53))
	s := NewShardSetWorkers(0, 2)
	sh := &s.shards[0]
	ref := refSet{}
	sizes := []int{0}
	for next, step := 0, 0; next < len(own); step++ {
		if step%3 == 0 {
			a := own[next]
			next++
			if s.Add(a) != ref.add(a) {
				t.Fatalf("step %d: Add(%v) disagreement", step, a)
			}
		} else {
			n := min(1+rng.Intn(6*len(sizes)), len(own)-next)
			batch := append([]Addr(nil), own[next:next+n]...)
			for i := 0; i < n/2 && next > 0; i++ {
				batch = append(batch, own[rng.Intn(next)], other[rng.Intn(len(other))])
			}
			next += n
			wantNew := 0
			for _, a := range batch {
				if ref.add(a) {
					wantNew++
				}
			}
			if got := s.AddSlice(batch); got != wantNew {
				t.Fatalf("step %d: AddSlice new = %d, want %d", step, got, wantNew)
			}
		}
		if step%7 == 0 {
			s.Compact()
		}
		if slots := len(sh.index); slots != sizes[len(sizes)-1] {
			sizes = append(sizes, slots)
		}
		checkIndex(t, 0, sh)
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
		for _, a := range own[max(0, next-50):min(len(own), next+50)] {
			if _, want := ref[a]; s.Contains(a) != want {
				t.Fatalf("step %d: Contains(%v) = %v, want %v", step, a, !want, want)
			}
		}
	}
	for _, a := range own {
		if !s.Contains(a) {
			t.Fatalf("member %v lost", a)
		}
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged from the reference")
	}
	if len(sizes) < 8 {
		t.Fatalf("index went through sizes %v: want at least 7 doublings in shard 0", sizes)
	}
}
