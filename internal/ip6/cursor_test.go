package ip6

import (
	"slices"
	"testing"
)

// fuzzAddr spreads two bytes over an address so that prefixes of every
// length up to /128 differ and nest.
func fuzzAddr(b0, b1 byte) Addr {
	const ones = 0x0101010101010101
	return AddrFromUint64(uint64(b0)*ones, uint64(b1)*ones)
}

// FuzzIntervalCursor drives one IntervalCursor through an arbitrary —
// unsorted, repeating, boundary-heavy — query sequence over the compiled
// table of a fuzzed set of distinct prefixes: at every step the cursor, a
// fresh LookupInterval binary search and a brute-force longest match
// over the prefixes must agree (which pins CompileIntervals and
// LookupInterval along the way). Input layout: a prefix count, three
// bytes per prefix (address pattern, length; repeats are skipped), then
// three bytes per query (prefix to aim at, which of its edges, jitter).
func FuzzIntervalCursor(f *testing.F) {
	f.Add([]byte{})
	// ::/0 and its wrap-around edges.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0})
	// A gap, then the first address of the interval that ends it.
	f.Add([]byte{1, 0x30, 0x30, 48, 0, 2, 0, 0, 0, 0})
	// A duplicated /32 around a /48, queried out of order.
	f.Add([]byte{3, 0x20, 0x01, 32, 0x20, 0x01, 48, 0x20, 0x01, 32,
		0, 0, 0, 1, 1, 0, 1, 3, 0, 0, 2, 0, 1, 4, 9, 2, 5, 77})
	// Both ends of the address space.
	f.Add([]byte{4, 0xff, 0xff, 128, 0xff, 0xff, 64, 0, 0, 128, 0x80, 0, 1,
		0, 3, 0, 2, 2, 0, 1, 1, 0, 3, 0, 0, 3, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 24
		data = data[1:]
		var prefixes []Prefix
		for ; n > 0 && len(data) >= 3; n, data = n-1, data[3:] {
			if p := PrefixFrom(fuzzAddr(data[0], data[1]), int(data[2])%129); !slices.Contains(prefixes, p) {
				prefixes = append(prefixes, p)
			}
		}
		if len(prefixes) == 0 {
			return
		}
		slices.SortFunc(prefixes, CompareNested)
		ids := make([]int32, len(prefixes))
		for i := range ids {
			ids[i] = int32(i)
		}
		tab := CompileIntervals(prefixes, ids)
		cur := NewIntervalCursor(tab)
		for ; len(data) >= 3; data = data[3:] {
			p := prefixes[int(data[0])%len(prefixes)]
			var a Addr
			switch data[1] % 6 {
			case 0:
				a = p.Addr()
			case 1:
				a = p.Last()
			case 2:
				a = p.Addr().Prev()
			case 3:
				a = p.Last().Next()
			case 4:
				a = AddrFromUint64(p.Addr().Hi(), p.Addr().Lo()^uint64(data[2]))
			default:
				a = fuzzAddr(data[2], data[0])
			}
			want, wantOK := int32(-1), false
			for i, q := range prefixes {
				if q.Contains(a) && (!wantOK || q.Bits() > prefixes[want].Bits()) {
					want, wantOK = int32(i), true
				}
			}
			got, gotOK := cur.Lookup(a)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("cursor(%v) = %d,%v; longest match over %v is %d,%v", a, got, gotOK, prefixes, want, wantOK)
			}
			got, gotOK = LookupInterval(tab, a)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("LookupInterval(%v) = %d,%v; longest match over %v is %d,%v", a, got, gotOK, prefixes, want, wantOK)
			}
		}
	})
}
