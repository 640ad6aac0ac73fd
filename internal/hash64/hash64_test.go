package hash64

import (
	"hash/fnv"
	"strings"
	"testing"
)

// TestMixPinned pins the finalizer's output bits: the values are the
// first three outputs of the reference splitmix64 generator seeded with
// 0 (state advanced by the golden-ratio increment before each mix).
func TestMixPinned(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	state := uint64(0)
	for i, w := range want {
		state += 0x9e3779b97f4a7c15
		if got := Mix(state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestStringIsFNV1a pins String against the standard library's FNV-1a.
func TestStringIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "example.com", "www.example.com|CT"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := String(s), h.Sum64(); got != want {
			t.Errorf("String(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestStringsIsStringOfConcatenation pins Strings equal to String of the
// joined parts: the per-name collection epochs hash name, separator and
// source without concatenating them.
func TestStringsIsStringOfConcatenation(t *testing.T) {
	for _, parts := range [][]string{nil, {""}, {"", ""}, {"a"}, {"www.example.com", "|", "CT"}, {"x.example.", "|", ""}, {"", "|", "FDNS"}} {
		if got, want := Strings(parts...), String(strings.Join(parts, "")); got != want {
			t.Errorf("Strings(%q) = %#x, String of the concatenation = %#x", parts, got, want)
		}
	}
}
