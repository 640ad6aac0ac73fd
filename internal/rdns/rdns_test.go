package rdns

import (
	"reflect"
	"sync"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/dnssim"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

func TestWalkRecoversAll(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8::2"),
		ip6.MustParseAddr("2001:db8:0:1::9"),
		ip6.MustParseAddr("2001:dead::5"),
		ip6.MustParseAddr("fe80::1234"),
	}
	tr := dnssim.NewRTree(addrs)
	res := Walk(tr)
	if len(res.Addrs) != len(addrs) {
		t.Fatalf("recovered %d addresses, want %d", len(res.Addrs), len(addrs))
	}
	want := map[ip6.Addr]bool{}
	for _, a := range addrs {
		want[a] = true
	}
	for _, a := range res.Addrs {
		if !want[a] {
			t.Errorf("unexpected address %v", a)
		}
	}
	if res.Queries == 0 {
		t.Error("no queries counted")
	}
	// Pruning bound: far fewer queries than brute force (16^32), and
	// linear-ish in entries: <= entries * 32 * 16 + slack.
	if res.Queries > len(addrs)*32*16+16 {
		t.Errorf("walk issued %d queries, pruning broken", res.Queries)
	}
}

func TestWalkEmptyTree(t *testing.T) {
	tr := dnssim.NewRTree(nil)
	res := Walk(tr)
	if len(res.Addrs) != 0 {
		t.Error("empty tree yielded addresses")
	}
}

func TestWalkUnderSubtree(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("3001:db8::1"),
	}
	tr := dnssim.NewRTree(addrs)
	// Walk only under 2xxx.
	res := WalkUnder(tr, []byte{2})
	if len(res.Addrs) != 1 || res.Addrs[0] != addrs[0] {
		t.Errorf("subtree walk = %v", res.Addrs)
	}
	// Walking under a dead branch returns nothing quickly.
	res = WalkUnder(tr, []byte{4})
	if len(res.Addrs) != 0 || res.Queries != 1 {
		t.Errorf("dead subtree: %d addrs, %d queries", len(res.Addrs), res.Queries)
	}
}

func TestWalkDense(t *testing.T) {
	// A dense /124-style block: all 16 leaves under one node.
	base := ip6.MustParsePrefix("2001:db8::/124")
	var addrs []ip6.Addr
	for i := uint64(0); i < 16; i++ {
		addrs = append(addrs, base.NthAddr(i))
	}
	tr := dnssim.NewRTree(addrs)
	res := Walk(tr)
	if len(res.Addrs) != 16 {
		t.Errorf("dense walk found %d", len(res.Addrs))
	}
}

// TestWalkQueries pins the walk's own query count on a 3-address zone
// (the counts the zone's counter reported before the walker kept it):
// the whole zone, a live subtree, a dead one, and a full-length start.
func TestWalkQueries(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8::2"),
		ip6.MustParseAddr("2001:dead:beef::5"),
	}
	tr := dnssim.NewRTree(addrs)
	full := addrs[0].Nybbles()
	for _, c := range []struct {
		prefix  []byte
		queries int
		found   int
	}{
		{nil, 945, 3},
		{[]byte{2, 0, 0, 1, 0, 13}, 417, 2},
		{[]byte{2, 0, 0, 1, 0, 13, 14}, 1, 0},
		{full[:], 1, 1},
	} {
		res := WalkUnder(tr, c.prefix)
		if res.Queries != c.queries || len(res.Addrs) != c.found {
			t.Errorf("WalkUnder(%v): %d queries, %d addrs; want %d, %d",
				c.prefix, res.Queries, len(res.Addrs), c.queries, c.found)
		}
	}
}

// worldZone is the reverse zone of a small simulated world (the
// dnssim/netsim test world's configuration), built once.
var worldZone = sync.OnceValue(func() *dnssim.RTree {
	w := netsim.New(netsim.Config{
		Seed:      42,
		Registry:  bgp.RegistryConfig{ASes: 250, PrefixesPerAS: 3.5, Seed: 7},
		Scale:     0.08,
		EpochDays: 7,
		Epochs:    6,
	})
	return dnssim.NewRTree(w.RDNSAddrs())
})

// TestWalkConcurrent walks one shared zone from 8 goroutines: the zone
// is read-only and each walk counts its own queries, so every result
// must equal the serial walk's (and -race must stay quiet).
func TestWalkConcurrent(t *testing.T) {
	tr := worldZone()
	want := Walk(tr)
	if len(want.Addrs) == 0 {
		t.Fatal("empty world zone")
	}
	got := make([]Result, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Walk(tr)
		}()
	}
	wg.Wait()
	for g, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("goroutine %d: %d addrs/%d queries, serial %d/%d",
				g, len(r.Addrs), r.Queries, len(want.Addrs), want.Queries)
		}
	}
}

// BenchmarkWalk walks a sparse synthetic zone and the world's zone,
// reporting the cost per DNS query the walk issues.
func BenchmarkWalk(b *testing.B) {
	var addrs []ip6.Addr
	base := ip6.MustParsePrefix("2001:db8::/32")
	for i := uint64(0); i < 2000; i++ {
		addrs = append(addrs, base.NthAddr(i*7919))
	}
	for _, c := range []struct {
		name string
		zone func() *dnssim.RTree
	}{
		{"synthetic", func() *dnssim.RTree { return dnssim.NewRTree(addrs) }},
		{"world", worldZone},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := c.zone()
			b.ReportAllocs()
			b.ResetTimer()
			queries := 0
			for i := 0; i < b.N; i++ {
				queries += Walk(tr).Queries
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
		})
	}
}
