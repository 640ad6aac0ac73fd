package bgp

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"expanse/internal/ip6"
)

// The compiled table's oracle is the structure it replaced: an ip6.Trie
// filled by the same announcement list (a replacing Insert per entry).

// announceSet is a random announcement list with aggressive nesting
// (children derived from earlier prefixes), repeats that change an
// origin, and optionally the two extreme lengths, beside the trie filled
// from it.
type announceSet struct {
	trie ip6.Trie[ASN]
	log  []Announcement
}

func (s *announceSet) announce(p ip6.Prefix, origin ASN) {
	s.trie.Insert(p, origin)
	s.log = append(s.log, Announcement{Prefix: p, Origin: origin})
}

// table compiles the list announced so far.
func (s *announceSet) table() *Table { return NewTable(nil, s.log) }

func (s *announceSet) grow(rng *rand.Rand, n int, extremes bool) {
	for i := 0; i < n; i++ {
		origin := ASN(1 + rng.Intn(12))
		switch r := rng.Intn(10); {
		case r < 4 && len(s.log) > 0: // a more-specific of an earlier prefix
			parent := s.log[rng.Intn(len(s.log))].Prefix
			bits := min(parent.Bits()+1+rng.Intn(16), 128)
			s.announce(ip6.PrefixFrom(parent.RandomAddr(rng), bits), origin)
		case r < 6 && len(s.log) > 0: // a repeat
			s.announce(s.log[rng.Intn(len(s.log))].Prefix, origin)
		default:
			a := ip6.AddrFromUint64(rng.Uint64(), rng.Uint64())
			s.announce(ip6.PrefixFrom(a, 8+rng.Intn(57)), origin)
		}
	}
	if extremes {
		s.announce(ip6.PrefixFrom(ip6.Addr{}, 0), 99)
		s.announce(ip6.PrefixFrom(s.log[0].Prefix.RandomAddr(rng), 128), 98)
		s.announce(ip6.PrefixFrom(ip6.MaxAddr(), 128), 97)
	}
}

// probes returns a query mix: uniform addresses (mostly unrouted gaps
// unless ::/0 is announced), addresses inside announcements, and every
// announcement's first/last address and their outside neighbours.
func (s *announceSet) probes(rng *rand.Rand, n int) []ip6.Addr {
	var out []ip6.Addr
	for i := 0; i < n; i++ {
		out = append(out, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
		if len(s.log) > 0 {
			out = append(out, s.log[rng.Intn(len(s.log))].Prefix.RandomAddr(rng))
		}
	}
	return append(out, s.boundaries()...)
}

// boundaries returns every announcement's first and last address and
// their outside neighbours: the only addresses where the longest match
// can change.
func (s *announceSet) boundaries() []ip6.Addr {
	var out []ip6.Addr
	for _, a := range s.log {
		out = append(out, a.Prefix.Addr(), a.Prefix.Last(), a.Prefix.Addr().Prev(), a.Prefix.Last().Next())
	}
	return out
}

// check pins every point and enumeration read of tb against the trie.
func (s *announceSet) check(t *testing.T, tb *Table, probes []ip6.Addr) {
	t.Helper()
	var want []Announcement
	s.trie.Walk(func(p ip6.Prefix, asn ASN) bool {
		want = append(want, Announcement{Prefix: p, Origin: asn})
		return true
	})
	got := tb.Announcements()
	if len(got) != len(want) || tb.NumPrefixes() != s.trie.Len() {
		t.Fatalf("Announcements: %d entries, NumPrefixes %d; trie holds %d", len(got), tb.NumPrefixes(), s.trie.Len())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Announcements[%d] = %+v, trie walk says %+v", i, got[i], want[i])
		}
	}
	for asn := ASN(0); asn < 100; asn++ {
		var wantP []ip6.Prefix
		for _, a := range want {
			if a.Origin == asn {
				wantP = append(wantP, a.Prefix)
			}
		}
		if gotP := tb.PrefixesOf(asn); !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("PrefixesOf(%d) = %v, trie walk says %v", asn, gotP, wantP)
		}
	}
	for _, a := range probes {
		wp, wasn, wok := s.trie.Lookup(a)
		gp, gasn, gok := tb.Lookup(a)
		if gok != wok || gp != wp || gasn != wasn {
			t.Fatalf("Lookup(%v) = %v,%d,%v; trie says %v,%d,%v", a, gp, gasn, gok, wp, wasn, wok)
		}
		if oasn, ook := tb.Origin(a); ook != wok || oasn != wasn {
			t.Fatalf("Origin(%v) = %d,%v; trie says %d,%v", a, oasn, ook, wasn, wok)
		}
		if tb.IsRouted(a) != wok {
			t.Fatalf("IsRouted(%v) = %v; trie says %v", a, !wok, wok)
		}
	}
	s.checkIntervals(t, tb)
}

// checkIntervals pins Intervals() against the trie: sorted, disjoint,
// each interval's ends resolving to its announcement, no two adjacent
// intervals with one value, and every gap unrouted at both ends. With
// the Lookup checks at every announcement boundary, that fixes the
// table: the longest match only changes at a boundary.
func (s *announceSet) checkIntervals(t *testing.T, tb *Table) {
	t.Helper()
	anns := tb.Announcements()
	unrouted := func(a ip6.Addr) bool { _, _, ok := s.trie.Lookup(a); return !ok }
	ivals := tb.Intervals()
	for i, iv := range ivals {
		if iv.Hi.Less(iv.Lo) {
			t.Fatalf("interval %d is empty: %v-%v", i, iv.Lo, iv.Hi)
		}
		for _, end := range []ip6.Addr{iv.Lo, iv.Hi} {
			if p, _, ok := s.trie.Lookup(end); !ok || p != anns[iv.Val].Prefix {
				t.Fatalf("interval %d (%v-%v) holds %v; the trie resolves %v to %v,%v", i, iv.Lo, iv.Hi, anns[iv.Val].Prefix, end, p, ok)
			}
		}
		gapLo := ip6.Addr{}
		if i > 0 {
			prev := ivals[i-1]
			if !prev.Hi.Less(iv.Lo) {
				t.Fatalf("intervals %d and %d overlap or are out of order", i-1, i)
			}
			if prev.Hi.Next() == iv.Lo {
				if prev.Val == iv.Val {
					t.Fatalf("intervals %d and %d are adjacent with one value", i-1, i)
				}
				continue
			}
			gapLo = prev.Hi.Next()
		} else if iv.Lo == (ip6.Addr{}) {
			continue
		}
		if !unrouted(gapLo) || !unrouted(iv.Lo.Prev()) {
			t.Fatalf("the gap %v-%v before interval %d is routed", gapLo, iv.Lo.Prev(), i)
		}
	}
	if n := len(ivals); n == 0 {
		if len(anns) > 0 {
			t.Fatal("announcements compile to no interval")
		}
	} else if last := ivals[n-1].Hi; last != ip6.MaxAddr() && (!unrouted(last.Next()) || !unrouted(ip6.MaxAddr())) {
		t.Fatalf("the gap after %v is routed", last)
	}
}

func TestTableMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb6f))
	for trial := 0; trial < 40; trial++ {
		s := &announceSet{}
		s.grow(rng, 1+rng.Intn(100), trial%3 == 0)
		s.check(t, s.table(), s.probes(rng, 200))
	}
}

// FuzzTable compiles arbitrary announcement lists — nested, unsorted,
// repeating prefixes with different origins, down to ::/0 and up to host
// routes — and pins every read against the trie filled from the same
// list (see check). Each 4-byte record of the input announces one
// prefix: a fresh one, a more-specific of an earlier one, or a repeat.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 32, 7, 1, 2, 16, 0, 2, 3, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 1, 2, 128, 9, 1, 3, 4, 1, 2, 4, 1, 1, 2, 5, 2, 2})
	f.Add([]byte{0, 9, 48, 1, 0, 8, 40, 1, 0, 7, 32, 1, 1, 6, 8, 2, 2, 5, 0, 3, 2, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &announceSet{}
		for ; len(data) >= 4; data = data[4:] {
			kind, origin, bits, salt := data[0]%3, ASN(1+data[1]%8), int(data[2]), data[3]
			switch {
			case kind == 1 && len(s.log) > 0: // a more-specific of an earlier prefix
				parent := s.log[int(salt)%len(s.log)].Prefix
				rng := rand.New(rand.NewSource(int64(salt)))
				s.announce(ip6.PrefixFrom(parent.RandomAddr(rng), min(parent.Bits()+1+bits%24, 128)), origin)
			case kind == 2 && len(s.log) > 0: // a repeat, usually with another origin
				s.announce(s.log[int(salt)%len(s.log)].Prefix, origin)
			default: // a fresh prefix in a narrow space, so they overlap
				a := ip6.AddrFromUint64(0x2001_0db8_0000_0000|uint64(salt)<<24, uint64(salt)*0x9e3779b97f4a7c15)
				s.announce(ip6.PrefixFrom(a, bits%129), origin)
			}
		}
		in := slices.Clone(s.log)
		tb := s.table()
		if !slices.Equal(s.log, in) {
			t.Fatal("NewTable reordered its argument")
		}
		s.check(t, tb, s.boundaries())
	})
}

func TestEmptyTable(t *testing.T) {
	var tb Table // the zero value is ready
	a := ip6.MustParseAddr("2001:db8::1")
	if _, _, ok := tb.Lookup(a); ok || tb.IsRouted(a) {
		t.Error("empty table routes an address")
	}
	if tb.NumPrefixes() != 0 || len(tb.Announcements()) != 0 || len(tb.Intervals()) != 0 || len(tb.Origins()) != 0 {
		t.Error("empty table has entries")
	}
	if ids := tb.Resolve([]ip6.Addr{a, a}, 4); len(ids) != 2 || ids[0] != -1 || ids[1] != -1 {
		t.Errorf("Resolve on empty table = %v", ids)
	}
	ta := tb.Tally(4, []ip6.Addr{a})
	if ta.Prefixes() != 0 || ta.ASes() != 0 || len(ta.TopAS(3)) != 0 || ta.Concentration(true).Total() != 0 {
		t.Error("empty table tallies something")
	}
	if got := tb.SplitByAS([]ip6.Addr{a}, 1); len(got) != 0 {
		t.Errorf("SplitByAS on empty table = %v", got)
	}
}

// attributionRef is the map-keyed attribution the kernel replaced: one
// trie walk per address into prefix- and AS-keyed maps.
type attributionRef struct {
	pfx   map[ip6.Prefix][]int
	as    map[ASN][]int
	total int
}

func (s *announceSet) attributionRef(addrs []ip6.Addr) attributionRef {
	ref := attributionRef{pfx: map[ip6.Prefix][]int{}, as: map[ASN][]int{}}
	for i, a := range addrs {
		if p, asn, ok := s.trie.Lookup(a); ok {
			ref.pfx[p] = append(ref.pfx[p], i)
			ref.as[asn] = append(ref.as[asn], i)
			ref.total++
		}
	}
	return ref
}

// TestAttributionKernelMatchesMaps pins Resolve, Tally, Buckets and
// SplitByAS against the map-keyed reference on sorted and on shuffled
// input, across worker counts (the input is long enough to split).
func TestAttributionKernelMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa77))
	for trial := 0; trial < 6; trial++ {
		s := &announceSet{}
		s.grow(rng, 40+rng.Intn(100), trial%2 == 0)
		table := s.table()
		sorted := s.probes(rng, 2500)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		shuffled := append([]ip6.Addr(nil), sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		anns := table.Announcements()
		origins := table.Origins()
		for _, addrs := range [][]ip6.Addr{sorted, shuffled} {
			ref := s.attributionRef(addrs)
			if len(ref.pfx) < 2 || ref.total == len(addrs) && trial%2 != 0 {
				t.Fatalf("trial %d: degenerate mix (%d prefixes hit, %d of %d routed)", trial, len(ref.pfx), ref.total, len(addrs))
			}
			var ids1 []int32
			for _, workers := range []int{1, 4, 16} {
				ids := table.Resolve(addrs, workers)
				if workers == 1 {
					ids1 = ids
					for i, a := range addrs {
						p, _, ok := s.trie.Lookup(a)
						if ok != (ids[i] >= 0) || ok && anns[ids[i]].Prefix != p {
							t.Fatalf("trial %d: Resolve[%d] (%v) = %d, trie says %v,%v", trial, i, a, ids[i], p, ok)
						}
					}
				} else if !reflect.DeepEqual(ids, ids1) {
					t.Fatalf("trial %d: Resolve differs between 1 and %d workers", trial, workers)
				}

				ta := table.Tally(workers, addrs[:len(addrs)/3], addrs[len(addrs)/3:])
				if ta.Prefixes() != len(ref.pfx) || ta.ASes() != len(ref.as) {
					t.Fatalf("trial %d: tally covers %d prefixes / %d ASes, maps say %d / %d",
						trial, ta.Prefixes(), ta.ASes(), len(ref.pfx), len(ref.as))
				}
				for id, ann := range anns {
					if ta.Counts[id] != len(ref.pfx[ann.Prefix]) || ta.Of(ann.Prefix) != ta.Counts[id] {
						t.Fatalf("trial %d: %v counts %d (Of: %d), map says %d",
							trial, ann.Prefix, ta.Counts[id], ta.Of(ann.Prefix), len(ref.pfx[ann.Prefix]))
					}
				}
				if ta.Of(ip6.PrefixFrom(addrs[0], 127)) != 0 {
					t.Fatalf("trial %d: Of an unannounced prefix is non-zero", trial)
				}
				for k, n := range ta.ByAS() {
					if n != len(ref.as[origins[k]]) {
						t.Fatalf("trial %d: AS%d counts %d, map says %d", trial, origins[k], n, len(ref.as[origins[k]]))
					}
				}
				if c := ta.Concentration(true); c.Groups() != len(ref.as) || c.Total() != ref.total {
					t.Fatalf("trial %d: AS concentration %d groups / %d total", trial, c.Groups(), c.Total())
				}
				if c := ta.Concentration(false); c.Groups() != len(ref.pfx) || c.Total() != ref.total {
					t.Fatalf("trial %d: prefix concentration %d groups / %d total", trial, c.Groups(), c.Total())
				}

				// The ranking rule, written out the way the report sites
				// used to: count descending, ties by ASN.
				var wantTop []ASCount
				for asn, idx := range ref.as {
					wantTop = append(wantTop, ASCount{ASN: asn, Count: len(idx)})
				}
				sort.Slice(wantTop, func(i, j int) bool {
					if wantTop[i].Count != wantTop[j].Count {
						return wantTop[i].Count > wantTop[j].Count
					}
					return wantTop[i].ASN < wantTop[j].ASN
				})
				if got := ta.TopAS(5); !reflect.DeepEqual(got, wantTop[:min(5, len(wantTop))]) {
					t.Fatalf("trial %d: TopAS = %v, want %v", trial, got, wantTop[:min(5, len(wantTop))])
				}

				groups := table.SplitByAS(addrs, workers)
				if len(groups) != len(ref.as) {
					t.Fatalf("trial %d: SplitByAS has %d groups, map says %d", trial, len(groups), len(ref.as))
				}
				for gi, g := range groups {
					if gi > 0 && groups[gi-1].ASN >= g.ASN {
						t.Fatalf("trial %d: SplitByAS not in ASN order at %d", trial, gi)
					}
					var want []ip6.Addr
					for _, i := range ref.as[g.ASN] {
						want = append(want, addrs[i])
					}
					if !reflect.DeepEqual(g.Addrs, want) {
						t.Fatalf("trial %d: SplitByAS group AS%d differs from the map split", trial, g.ASN)
					}
				}
			}

			toInts := func(idx []int32) []int {
				var out []int
				for _, i := range idx {
					out = append(out, int(i))
				}
				return out
			}
			for id, idx := range table.Buckets(ids1, false) {
				if !reflect.DeepEqual(toInts(idx), ref.pfx[anns[id].Prefix]) {
					t.Fatalf("trial %d: bucket of %v = %v, map says %v", trial, anns[id].Prefix, idx, ref.pfx[anns[id].Prefix])
				}
			}
			for k, idx := range table.Buckets(ids1, true) {
				if !reflect.DeepEqual(toInts(idx), ref.as[origins[k]]) {
					t.Fatalf("trial %d: bucket of AS%d = %v, map says %v", trial, origins[k], idx, ref.as[origins[k]])
				}
			}
		}
	}
}
