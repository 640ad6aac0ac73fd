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

// TestContinueIsStringOfConcatenation pins Continue as a resumed String
// over any number of parts, empty ones included: the per-name keys are
// folded part by part, and the collection epochs continue a name's key
// with a separator and a source.
func TestContinueIsStringOfConcatenation(t *testing.T) {
	for _, c := range []struct {
		a     string
		parts []string
	}{
		{"", nil}, {"", []string{""}}, {"a", []string{""}}, {"", []string{"", "b"}},
		{"host", []string{"17", ".as", "64500", ".example."}},
		{"www.example.com", []string{"|", "CT"}}, {"x.example.", []string{"|", ""}}, {"", []string{"|", "FDNS"}},
	} {
		want := String(c.a + strings.Join(c.parts, ""))
		if got := Continue(String(c.a), c.parts...); got != want {
			t.Errorf("Continue(String(%q), %q) = %#x, String of the concatenation = %#x", c.a, c.parts, got, want)
		}
		bs := make([][]byte, len(c.parts))
		for i, p := range c.parts {
			bs[i] = []byte(p)
		}
		if got := Continue(String(c.a), bs...); got != want {
			t.Errorf("Continue(String(%q), %q as bytes) = %#x, String of the concatenation = %#x", c.a, c.parts, got, want)
		}
	}
}
