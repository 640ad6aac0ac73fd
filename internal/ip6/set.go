package ip6

import "sort"

// Set is an insertion-deduplicating collection of IPv6 addresses backed
// by a single map — the right tool for small scratch collections (dedup
// inside one collector batch, generation-study bookkeeping). The hitlist
// itself lives in ShardSet, the sharded columnar store with parallel
// batch operations and a cached sorted view.
// The zero value is an empty set ready to use.
type Set struct {
	m map[Addr]struct{}
}

// NewSet returns a set preallocated for n addresses.
func NewSet(n int) *Set {
	return &Set{m: make(map[Addr]struct{}, n)}
}

// Add inserts a, reporting whether it was newly added.
func (s *Set) Add(a Addr) bool {
	if s.m == nil {
		s.m = make(map[Addr]struct{})
	}
	if _, ok := s.m[a]; ok {
		return false
	}
	s.m[a] = struct{}{}
	return true
}

// AddSlice inserts every address in addrs, returning how many were new.
func (s *Set) AddSlice(addrs []Addr) int {
	n := 0
	for _, a := range addrs {
		if s.Add(a) {
			n++
		}
	}
	return n
}

// Contains reports membership.
func (s *Set) Contains(a Addr) bool {
	_, ok := s.m[a]
	return ok
}

// Len returns the number of addresses.
func (s *Set) Len() int { return len(s.m) }

// Sorted returns the addresses in ascending numeric order. The result is
// freshly allocated.
func (s *Set) Sorted() []Addr {
	out := make([]Addr, 0, len(s.m))
	for a := range s.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
