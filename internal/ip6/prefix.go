package ip6

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Prefix is an IPv6 network prefix: an address plus a length in bits.
// The address is always kept in masked (canonical) form, so Prefix values
// are comparable with == and usable as map keys.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom returns the prefix of the given length containing addr.
// The address is masked to the prefix boundary. Lengths outside [0,128]
// are clamped.
func PrefixFrom(addr Addr, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 128 {
		length = 128
	}
	return Prefix{addr: mask(addr, length), bits: uint8(length)}
}

func mask(a Addr, length int) Addr {
	switch {
	case length <= 0:
		return Addr{}
	case length >= 128:
		return a
	case length <= 64:
		return Addr{hi: a.hi &^ (^uint64(0) >> length)}
	default:
		return Addr{hi: a.hi, lo: a.lo &^ (^uint64(0) >> (length - 64))}
	}
}

// Addr returns the (masked) base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// IsZero reports whether p is the zero Prefix ("::/0").
func (p Prefix) IsZero() bool { return p.bits == 0 && p.addr.IsZero() }

// Contains reports whether the prefix covers addr.
func (p Prefix) Contains(a Addr) bool {
	return mask(a, int(p.bits)) == p.addr
}

// ContainsPrefix reports whether p covers all of q (p is a supernet of or
// equal to q).
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// Last returns the highest address inside the prefix.
func (p Prefix) Last() Addr {
	l := int(p.bits)
	switch {
	case l <= 0:
		return Addr{hi: ^uint64(0), lo: ^uint64(0)}
	case l >= 128:
		return p.addr
	case l <= 64:
		return Addr{hi: p.addr.hi | ^uint64(0)>>l, lo: ^uint64(0)}
	default:
		return Addr{hi: p.addr.hi, lo: p.addr.lo | ^uint64(0)>>(l-64)}
	}
}

// Subprefix returns the idx-th subprefix of length newLen (newLen must be
// >= p.Bits()). Subprefixes are numbered from 0 in address order; only the
// low bits of idx that fit in newLen-p.Bits() are used.
func (p Prefix) Subprefix(newLen int, idx uint64) Prefix {
	if newLen <= int(p.bits) {
		return p
	}
	if newLen > 128 {
		newLen = 128
	}
	a := p.addr
	span := newLen - int(p.bits)
	if span < 64 {
		idx &= 1<<span - 1
	}
	// Place idx so its low bit lands at position (newLen-1).
	if newLen <= 64 {
		a.hi |= idx << (64 - newLen)
	} else if int(p.bits) >= 64 {
		a.lo |= idx << (128 - newLen)
	} else {
		// The sub-prefix bits straddle the 64-bit boundary.
		loBits := newLen - 64
		a.lo |= idx << (128 - newLen) // low part
		hiPart := idx >> loBits
		a.hi |= hiPart
	}
	return Prefix{addr: a, bits: uint8(newLen)}
}

// RandomAddr returns a pseudo-random address inside the prefix drawn from
// rng. The host bits are uniform random; the network bits are fixed.
func (p Prefix) RandomAddr(rng *rand.Rand) Addr {
	return p.WithHostBits(rng.Uint64(), rng.Uint64())
}

// WithHostBits returns the address inside the prefix whose host bits are
// those of hi:lo — RandomAddr for callers that draw the two words from a
// source of their own (a value-type lazyrand.Source stays on the stack
// this way, where an interface parameter would move it to the heap).
func (p Prefix) WithHostBits(hi, lo uint64) Addr {
	l := int(p.bits)
	switch {
	case l <= 0:
		return Addr{hi: hi, lo: lo}
	case l >= 128:
		return p.addr
	case l <= 64:
		return Addr{hi: p.addr.hi | hi&(^uint64(0)>>l), lo: lo}
	default:
		return Addr{hi: p.addr.hi, lo: p.addr.lo | lo&(^uint64(0)>>(l-64))}
	}
}

// NthAddr returns the base address plus n, staying within the prefix by
// masking overflow into the host bits.
func (p Prefix) NthAddr(n uint64) Addr {
	l := int(p.bits)
	if l >= 128 {
		return p.addr
	}
	hostBits := 128 - l
	if hostBits < 64 {
		n &= 1<<hostBits - 1
	}
	lo := p.addr.lo + n
	hi := p.addr.hi
	if lo < p.addr.lo && l < 64 {
		hi++
	}
	return Addr{hi: hi, lo: lo}
}

// String returns the canonical "addr/len" form.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// ParsePrefix parses an "addr/len" prefix string. The address part is
// masked to the prefix boundary. The length is plain decimal, 0–128,
// without a sign or leading zeros, as net/netip requires.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q: %v", ErrBadPrefix, s, err)
	}
	bits := s[i+1:]
	n, err := strconv.Atoi(bits)
	// Atoi accepted, so bits is non-empty; a sign or a leading zero is
	// still not a plain decimal length.
	if err != nil || n > 128 || bits[0] < '0' || bits[0] > '9' || (bits[0] == '0' && len(bits) > 1) {
		return Prefix{}, fmt.Errorf("%w: %q bad length", ErrBadPrefix, s)
	}
	return PrefixFrom(a, n), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ComparePrefix orders prefixes by length first (shorter prefixes sort
// first) and then by base address; this is the {prefix-size, ASN} zesplot
// order before the ASN tiebreak.
func ComparePrefix(a, b Prefix) int {
	if a.bits != b.bits {
		return int(a.bits) - int(b.bits)
	}
	return a.addr.Compare(b.addr)
}

// CompareNested orders prefixes by base address first and length second
// — the trie walk order, in which a prefix sorts directly before
// everything it contains. It is the order of the alias plane's verdict
// column and the input contract of CompileIntervals.
func CompareNested(a, b Prefix) int {
	if c := a.addr.Compare(b.addr); c != 0 {
		return c
	}
	return int(a.bits) - int(b.bits)
}

// SortedKeys returns the keys of a prefix-keyed map in ComparePrefix
// order. Ranging over a map whose iteration order can reach a report,
// digest or probe schedule is the repo's canonical determinism bug
// (expanselint's maporder analyzer flags it); collecting through this
// helper is the sanctioned pattern.
func SortedKeys[V any](m map[Prefix]V) []Prefix {
	keys := make([]Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return ComparePrefix(keys[i], keys[j]) < 0 })
	return keys
}
