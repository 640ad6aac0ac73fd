package ip6

import (
	"math/rand"
	"testing"
)

// TestShardSetCompactMembership pins that compaction changes memory
// layout only: membership answers, the sorted view, Each order and Len
// are identical before and after Compact, and the set resumes normal
// operation after post-compaction mutations.
func TestShardSetCompactMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := randAddrs(4000, 17)
	s := NewShardSetWorkers(0, 0)
	ref := refSet{}
	for _, a := range pool[:3000] {
		s.Add(a)
		ref.add(a)
	}
	sortedBefore := append([]Addr(nil), s.Sorted()...)
	var eachBefore []Addr
	s.Each(func(a Addr) bool { eachBefore = append(eachBefore, a); return true })

	s.Compact()
	if !s.Compacted() {
		t.Fatal("Compact did not mark the set compacted")
	}
	for i := 0; i < 2000; i++ {
		a := pool[rng.Intn(len(pool))]
		_, want := ref[a]
		if s.Contains(a) != want {
			t.Fatalf("compacted Contains(%v) = %v, want %v", a, !want, want)
		}
	}
	if !addrsEqual(s.Sorted(), sortedBefore) {
		t.Fatal("compaction changed the sorted view")
	}
	var eachAfter []Addr
	s.Each(func(a Addr) bool { eachAfter = append(eachAfter, a); return true })
	if !addrsEqual(eachAfter, eachBefore) {
		t.Fatal("compaction changed the Each iteration order")
	}

	// Mutations after Compact leave the compacted fast path, rebuild the
	// affected shard maps, and keep exact dedup semantics.
	for _, a := range pool[2500:] {
		if s.Add(a) != ref.add(a) {
			t.Fatalf("post-compact Add(%v) disagreement", a)
		}
	}
	if s.Compacted() {
		t.Fatal("mutation did not clear the compacted state")
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged after post-compact mutations")
	}
	for i := 0; i < 2000; i++ {
		a := pool[rng.Intn(len(pool))]
		_, want := ref[a]
		if s.Contains(a) != want {
			t.Fatalf("post-compact Contains(%v) = %v, want %v", a, !want, want)
		}
	}
}

// TestShardSetCompactBatch exercises the batch mutation path against
// compaction, twice over: AddSlice must clear the snapshot and dedup
// exactly as on a never-compacted set, and again after the set is
// re-compacted.
func TestShardSetCompactBatch(t *testing.T) {
	pool := randAddrs(6000, 23)
	s := NewShardSetWorkers(0, 0)
	ref := refSet{}
	s.AddSlice(pool[:4000])
	for _, a := range pool[:4000] {
		ref.add(a)
	}
	s.Compact()
	wantNew := 0
	for _, a := range pool[1000:5000] {
		if ref.add(a) {
			wantNew++
		}
	}
	if got := s.AddSlice(pool[1000:5000]); got != wantNew {
		t.Fatalf("post-compact AddSlice new = %d, want %d", got, wantNew)
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged after post-compact AddSlice")
	}

	s.Compact()
	wantNew = 0
	for _, a := range pool[3000:] {
		if ref.add(a) {
			wantNew++
		}
	}
	if got := s.AddSlice(pool[3000:]); got != wantNew {
		t.Fatalf("second post-compact AddSlice new = %d, want %d", got, wantNew)
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged after the second post-compact AddSlice")
	}
}

// TestShardSetCompactFreeze pins the epoch-snapshot interaction: a
// FrozenView taken before Compact keeps serving its addresses, and
// compaction reuses the same cached sorted view (no copy).
func TestShardSetCompactFreeze(t *testing.T) {
	pool := randAddrs(3000, 29)
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(pool)
	fv := s.Freeze()
	s.Compact()
	if got, want := fv.Len(), s.Len(); got != want {
		t.Fatalf("frozen view len = %d, want %d", got, want)
	}
	for _, a := range pool[:200] {
		if !fv.Contains(a) || !s.Contains(a) {
			t.Fatalf("address %v lost across Compact", a)
		}
	}
}

// TestShardSetMemBytes pins the accounting direction: compaction must
// drop the map component to zero and leave columns and the sorted view
// in place.
func TestShardSetMemBytes(t *testing.T) {
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(randAddrs(10000, 31))
	s.Sorted()
	total, maps, cols, sorted := s.MemBytes()
	if maps == 0 || cols == 0 || sorted == 0 {
		t.Fatalf("pre-compact accounting has empty components: maps=%d cols=%d sorted=%d", maps, cols, sorted)
	}
	if total != maps+cols+sorted {
		t.Fatalf("total %d != %d+%d+%d", total, maps, cols, sorted)
	}
	s.Compact()
	_, maps2, cols2, sorted2 := s.MemBytes()
	if maps2 != 0 {
		t.Fatalf("post-compact map accounting = %d, want 0", maps2)
	}
	// Clipping leaves the columns at exactly 16 bytes per address.
	if want := int64(s.Len()) * 16; cols2 != want {
		t.Fatalf("post-compact column accounting = %d, want exact %d (was %d)", cols2, want, cols)
	}
	if sorted2 != sorted {
		t.Fatalf("compaction changed sorted-view accounting: %d→%d", sorted, sorted2)
	}
}

// TestShardSetCompactCols pins the columnar compaction flavor: maps and
// slack drop, no sorted view is built, and membership, iteration and
// later mutations stay exact.
func TestShardSetCompactCols(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := randAddrs(5000, 37)
	s := NewShardSetWorkers(0, 0)
	ref := refSet{}
	for _, a := range pool[:3500] {
		s.Add(a)
		ref.add(a)
	}
	var eachBefore []Addr
	s.Each(func(a Addr) bool { eachBefore = append(eachBefore, a); return true })

	s.CompactCols()
	if s.Compacted() {
		t.Fatal("CompactCols must not enter the sorted-snapshot fast path")
	}
	_, maps, cols, sorted := s.MemBytes()
	if maps != 0 {
		t.Fatalf("post-CompactCols map accounting = %d, want 0", maps)
	}
	if want := int64(s.Len()) * 16; cols != want {
		t.Fatalf("post-CompactCols column accounting = %d, want %d", cols, want)
	}
	if sorted != 0 {
		t.Fatalf("CompactCols built a sorted view (%d bytes)", sorted)
	}
	var eachAfter []Addr
	s.Each(func(a Addr) bool { eachAfter = append(eachAfter, a); return true })
	if !addrsEqual(eachAfter, eachBefore) {
		t.Fatal("CompactCols changed the Each iteration order")
	}
	// Contains falls back to the lazy map rebuild and answers exactly.
	for i := 0; i < 1500; i++ {
		a := pool[rng.Intn(len(pool))]
		_, want := ref[a]
		if s.Contains(a) != want {
			t.Fatalf("post-CompactCols Contains(%v) = %v, want %v", a, !want, want)
		}
	}
	for _, a := range pool[3000:] {
		if s.Add(a) != ref.add(a) {
			t.Fatalf("post-CompactCols Add(%v) disagreement", a)
		}
	}
	if !addrsEqual(s.Sorted(), ref.sorted()) {
		t.Fatal("sorted view diverged after post-CompactCols mutations")
	}
}
