package ip6

import (
	"sort"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set // zero value usable
	a := MustParseAddr("2001:db8::1")
	if !s.Add(a) {
		t.Error("first Add should report new")
	}
	if s.Add(a) {
		t.Error("second Add should report duplicate")
	}
	if !s.Contains(a) || s.Len() != 1 {
		t.Error("Contains/Len wrong")
	}
}

func TestSetSorted(t *testing.T) {
	s := NewSet(0)
	addrs := randAddrs(500, 3)
	s.AddSlice(addrs)
	got := s.Sorted()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Less(got[j]) }) {
		t.Error("Sorted() not sorted")
	}
	if len(got) != s.Len() {
		t.Errorf("Sorted() length %d != Len %d", len(got), s.Len())
	}
}
