package ip6

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// linearRuns is the obvious O(n) reference for PrefixRuns.
func linearRuns(sorted []Addr, bits int) [][3]uint64 {
	var out [][3]uint64 // prefix hi, lo index, hi index
	n := len(sorted)
	for lo := 0; lo < n; {
		p := PrefixFrom(sorted[lo], bits)
		hi := lo + 1
		for hi < n && p.Contains(sorted[hi]) {
			hi++
		}
		out = append(out, [3]uint64{p.Addr().Hi(), uint64(lo), uint64(hi)})
		lo = hi
	}
	return out
}

// TestPrefixRunsMatchesLinearScan pins the galloping boundary scan against
// a linear reference on random sorted address sets with heavily duplicated
// prefixes (run lengths from 1 to thousands).
func TestPrefixRunsMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4000)
		addrs := make([]Addr, n)
		for i := range addrs {
			// Few distinct /32s, many distinct hosts: long and short runs.
			hi := uint64(0x2001_0db8_0000_0000) | uint64(rng.Intn(8))<<32 | uint64(rng.Intn(4))
			addrs[i] = AddrFromUint64(hi, rng.Uint64()>>uint(rng.Intn(60)))
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		want := linearRuns(addrs, 32)
		var got [][3]uint64
		PrefixRuns(addrs, 32, func(p Prefix, lo, hi int) bool {
			got = append(got, [3]uint64{p.Addr().Hi(), uint64(lo), uint64(hi)})
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPrefixRunsEarlyStopAndEmpty(t *testing.T) {
	calls := 0
	PrefixRuns(nil, 32, func(Prefix, int, int) bool { calls++; return true })
	if calls != 0 {
		t.Error("empty sequence must produce no runs")
	}
	addrs := []Addr{
		MustParseAddr("2001:db8::1"),
		MustParseAddr("2001:dead::1"),
		MustParseAddr("2001:beff::1"),
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	PrefixRuns(addrs, 32, func(Prefix, int, int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop ignored: %d calls", calls)
	}
}

func TestPrefixRunsCoversWholeSequence(t *testing.T) {
	// Runs must partition [0, n) in order for any prefix length.
	rng := rand.New(rand.NewSource(7))
	addrs := make([]Addr, 2000)
	for i := range addrs {
		addrs[i] = AddrFromUint64(rng.Uint64()&0xffff_0000_0000_0000, rng.Uint64())
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for _, bits := range []int{0, 16, 32, 64, 128} {
		next := 0
		PrefixRuns(addrs, bits, func(p Prefix, lo, hi int) bool {
			if lo != next || hi <= lo {
				t.Fatalf("bits=%d: run [%d,%d) does not continue at %d", bits, lo, hi, next)
			}
			for i := lo; i < hi; i++ {
				if !p.Contains(addrs[i]) {
					t.Fatalf("bits=%d: addr %d outside run prefix", bits, i)
				}
			}
			next = hi
			return true
		})
		if next != len(addrs) {
			t.Fatalf("bits=%d: runs cover %d of %d", bits, next, len(addrs))
		}
	}
}
