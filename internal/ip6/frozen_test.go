package ip6

import "testing"

// TestFrozenViewPinsSortedEpoch pins the epoch-pinning contract of
// Freeze: the frozen view keeps the sorted snapshot it was taken at —
// contents, order, Contains — no matter how the live set mutates
// afterwards (buildSorted builds fresh backing arrays, never mutates
// a handed-out one).
func TestFrozenViewPinsSortedEpoch(t *testing.T) {
	pool := randAddrs(3000, 5)
	s := NewShardSetWorkers(0, 0)
	s.AddSlice(pool[:2000])
	fv := s.Freeze()
	want := append([]Addr(nil), s.Sorted()...)

	// Mutate the live set; the frozen view must not move.
	s.AddSlice(pool[2000:])
	if s.Len() <= len(want) {
		t.Fatal("test needs the later adds to grow the live set")
	}
	if fv.Len() != len(want) {
		t.Fatalf("frozen Len = %d, want %d", fv.Len(), len(want))
	}
	if !addrsEqual(fv.Sorted(), want) {
		t.Fatal("frozen Sorted moved after live-set mutation")
	}
	if !addrsEqual(fv.Seq(), want) {
		t.Fatal("frozen Seq disagrees with Sorted")
	}

	// Contains answers against the pinned epoch, not the live set.
	member := map[Addr]bool{}
	for _, a := range want {
		member[a] = true
		if !fv.Contains(a) {
			t.Fatalf("frozen Contains(%v) = false for a member", a)
		}
	}
	for _, a := range pool[2000:] {
		if !member[a] && fv.Contains(a) {
			t.Fatalf("frozen Contains(%v) = true for an address added after Freeze", a)
		}
	}
}
