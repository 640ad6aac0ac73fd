package ip6

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCompileIntervalsBasic(t *testing.T) {
	p96 := MustParsePrefix("2001:db8:1::/96")
	p100 := MustParsePrefix("2001:db8:1::/100")
	tab := CompileIntervals([]Prefix{p96, p100}, []bool{true, false})
	// The /100 punches a hole in the /96: expect [/100 start, /100 last]
	// false surrounded by the aliased remainder.
	for _, tc := range []struct {
		addr    string
		val, ok bool
	}{
		{"2001:db8:1::", false, true},          // inside the /100
		{"2001:db8:1::123", false, true},       // inside the /100
		{"2001:db8:1::fff:ffff", false, true},  // last of the /100
		{"2001:db8:1::1000:0", true, true},     // /96 above the hole
		{"2001:db8:1::ffff:ffff", true, true},  // last of the /96
		{"2001:db8:0:0:1::", false, false},     // below the /96
		{"2001:db9::1", false, false},          // uncovered
		{"::", false, false},                   // uncovered
		{"ffff:ffff::ffff:ffff", false, false}, // uncovered
	} {
		v, ok := LookupInterval(tab, MustParseAddr(tc.addr))
		if ok != tc.ok || (ok && v != tc.val) {
			t.Errorf("%s: got (%v,%v), want (%v,%v)", tc.addr, v, ok, tc.val, tc.ok)
		}
	}
}

func TestCompileIntervalsDisjointSortedMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps, vals := randomPrefixSet(rng, 200)
	tab := CompileIntervals(ps, vals)
	for i, iv := range tab {
		if iv.Hi.Less(iv.Lo) {
			t.Fatalf("interval %d inverted: %v > %v", i, iv.Lo, iv.Hi)
		}
		if i > 0 {
			prev := tab[i-1]
			if !prev.Hi.Less(iv.Lo) {
				t.Fatalf("intervals %d/%d overlap or disorder: %v vs %v", i-1, i, prev.Hi, iv.Lo)
			}
			// Minimality: adjacent equal-value intervals must be coalesced.
			if prev.Hi.Next() == iv.Lo && prev.Val == iv.Val {
				t.Errorf("intervals %d/%d not coalesced (val=%v)", i-1, i, iv.Val)
			}
		}
	}
}

// TestCompileIntervalsRejectsUnsorted pins the input contract: the sweep
// panics on out-of-order and on duplicate prefixes instead of compiling
// a wrong table, and accepts the same set once it is in order.
func TestCompileIntervalsRejectsUnsorted(t *testing.T) {
	p96 := MustParsePrefix("2001:db8:1::/96")
	p100 := MustParsePrefix("2001:db8:1::/100")
	other := MustParsePrefix("2001:db8:2::/48")
	panics := func(ps ...Prefix) (r any) {
		defer func() { r = recover() }()
		CompileIntervals(ps, make([]bool, len(ps)))
		return nil
	}
	for name, ps := range map[string][]Prefix{
		"child before parent": {p100, p96},
		"address descending":  {other, p96},
		"duplicate":           {p96, p96},
		"late disorder":       {p96, p100, other, p100},
	} {
		if panics(ps...) == nil {
			t.Errorf("%s: CompileIntervals accepted %v", name, ps)
		}
	}
	if r := panics(p96, p100, other); r != nil {
		t.Errorf("sorted unique input panicked: %v", r)
	}
	rng := rand.New(rand.NewSource(9))
	ps, _ := randomPrefixSet(rng, 150)
	i := 1 + rng.Intn(len(ps)-1)
	ps[i-1], ps[i] = ps[i], ps[i-1]
	if panics(ps...) == nil {
		t.Errorf("one adjacent swap at %d went unnoticed", i)
	}
}

// TestCompileIntervalsMatchesTrieLPM is the property pin of the compiled
// filter: interval lookup must agree with the trie's longest-prefix-match
// on random nested prefix sets, probed at uniform addresses and at every
// interval boundary (the off-by-one hot spots).
func TestCompileIntervalsMatchesTrieLPM(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		ps, vals := randomPrefixSet(rng, 1+rng.Intn(120))
		var trie Trie[bool]
		for i, p := range ps {
			trie.Insert(p, vals[i])
		}
		tab := CompileIntervals(ps, vals)
		check := func(a Addr) {
			_, wantV, wantOK := trie.Lookup(a)
			gotV, gotOK := LookupInterval(tab, a)
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("trial %d, addr %v: interval (%v,%v) vs trie (%v,%v)",
					trial, a, gotV, gotOK, wantV, wantOK)
			}
		}
		for i := 0; i < 300; i++ {
			check(Addr{hi: rng.Uint64(), lo: rng.Uint64()})
		}
		// Inside the covered ranges, plus exact boundaries and the
		// addresses one off each side.
		for _, p := range ps {
			check(p.RandomAddr(rng))
		}
		for _, iv := range tab {
			for _, a := range []Addr{iv.Lo, iv.Hi, iv.Lo.Prev(), iv.Hi.Next()} {
				check(a)
			}
		}
	}
}

func TestCompileIntervalsFullSpace(t *testing.T) {
	// ::/0 with nested more-specifics: every address is covered and the
	// top of the address space closes without wrapping.
	root := MustParsePrefix("::/0")
	hole := MustParsePrefix("ffff::/16")
	tab := CompileIntervals([]Prefix{root, hole}, []bool{true, false})
	max := Addr{hi: ^uint64(0), lo: ^uint64(0)}
	if v, ok := LookupInterval(tab, max); !ok || v {
		t.Errorf("max address: got (%v,%v), want (false,true)", v, ok)
	}
	if v, ok := LookupInterval(tab, Addr{}); !ok || !v {
		t.Errorf(":: : got (%v,%v), want (true,true)", v, ok)
	}
	if last := tab[len(tab)-1].Hi; last != max {
		t.Errorf("table does not reach the top: %v", last)
	}
	if len(CompileIntervals[bool](nil, nil)) != 0 {
		t.Error("empty input must compile to an empty table")
	}
}

// randomPrefixSet builds a set of unique random prefixes with aggressive
// nesting: children are derived from earlier prefixes so the stack sweep
// sees deep containment chains. The set comes back in CompareNested
// order, as CompileIntervals requires.
func randomPrefixSet(rng *rand.Rand, n int) ([]Prefix, []bool) {
	seen := map[Prefix]bool{}
	var ps []Prefix
	for len(ps) < n {
		var p Prefix
		if len(ps) > 0 && rng.Intn(2) == 0 {
			// More-specific of an existing prefix.
			parent := ps[rng.Intn(len(ps))]
			bits := parent.Bits() + 1 + rng.Intn(12)
			if bits > 128 {
				bits = 128
			}
			p = PrefixFrom(parent.RandomAddr(rng), bits)
		} else {
			p = PrefixFrom(Addr{hi: rng.Uint64(), lo: rng.Uint64()}, 1+rng.Intn(128))
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	slices.SortFunc(ps, CompareNested)
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	return ps, vals
}
