package dnssim_test

import (
	"testing"

	"expanse/internal/dnssim"
	"expanse/internal/rdns"
)

// TestWalkMatchesTrie holds rdns.Walk over the world's reverse zone to the
// same walk over the retired pointer trie: the same addresses in the same
// discovery order, and the same query count (what §8 reports as the
// walk's strain on the DNS).
func TestWalkMatchesTrie(t *testing.T) {
	pop := dnssim.World.RDNSAddrs()
	want, wantQ := dnssim.RefWalk(pop)
	got := rdns.Walk(dnssim.WorldServer.Reverse())
	if got.Queries != wantQ {
		t.Errorf("walk issued %d queries, trie walk %d", got.Queries, wantQ)
	}
	if len(got.Addrs) != len(want) {
		t.Fatalf("walk found %d addresses, trie walk %d", len(got.Addrs), len(want))
	}
	for i := range want {
		if got.Addrs[i] != want[i] {
			t.Fatalf("address %d: walk %v, trie walk %v", i, got.Addrs[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("empty rDNS population")
	}
}
