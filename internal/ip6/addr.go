// Package ip6 provides the IPv6 address machinery that the rest of the
// library builds on: a compact 128-bit address type, RFC 4291 parsing
// (accepting exactly what net/netip accepts for zoneless IPv6, FuzzParse)
// and RFC 5952 canonical formatting, nybble-level access (the unit of
// analysis for entropy fingerprints and aliased prefix detection),
// prefixes, the interval-compiled longest-prefix-match tables every
// resolver reads, the radix trie their tests are pinned against, and the
// hitlist store (ShardSet).
//
// Every address sequence is a plain []Addr: the store's shards keep one
// append-only []Addr each, its sorted view is a []Addr, and every
// consumer — scanner, alias filter, attribution, fingerprints — takes a
// slice, so a run of a sorted view is handed on as a subslice.
//
// The package is self-contained and deliberately does not depend on
// net/netip so that nybble arithmetic, prefix fan-out, and address
// generation stay allocation-free on the hot paths of the prober.
package ip6

import (
	"errors"
	"fmt"
	"math/bits"

	"expanse/internal/hash64"
)

// Addr is a 128-bit IPv6 address stored in network byte order.
// The zero value is the unspecified address "::".
type Addr struct {
	hi uint64 // bytes 0-7
	lo uint64 // bytes 8-15
}

// Addrs is []Addr under an earlier name, kept only for cmd/bench.
type Addrs = []Addr

// AddrFrom16 returns the address for the given 16-byte representation.
func AddrFrom16(b [16]byte) Addr {
	var a Addr
	for i := 0; i < 8; i++ {
		a.hi = a.hi<<8 | uint64(b[i])
	}
	for i := 8; i < 16; i++ {
		a.lo = a.lo<<8 | uint64(b[i])
	}
	return a
}

// AddrFromUint64 assembles an address from its two 64-bit halves.
func AddrFromUint64(hi, lo uint64) Addr { return Addr{hi: hi, lo: lo} }

// As16 returns the 16-byte representation of a.
func (a Addr) As16() [16]byte {
	var b [16]byte
	hi, lo := a.hi, a.lo
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		hi >>= 8
	}
	for i := 15; i >= 8; i-- {
		b[i] = byte(lo)
		lo >>= 8
	}
	return b
}

// Hi returns the upper 64 bits (network prefix + subnet for typical plans).
func (a Addr) Hi() uint64 { return a.hi }

// Lo returns the lower 64 bits (the interface identifier).
func (a Addr) Lo() uint64 { return a.lo }

// IsZero reports whether a is the unspecified address "::".
func (a Addr) IsZero() bool { return a.hi == 0 && a.lo == 0 }

// Compare returns -1, 0, or +1 ordering addresses numerically.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// Less reports whether a sorts before b.
func (a Addr) Less(b Addr) bool { return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo) }

// Search returns the index of the first address in sorted (ascending)
// that is not below a, len(sorted) if there is none: the one lower-bound
// search over every sorted address column (Less inlines, unlike the
// func value sort.Search calls).
func Search(sorted []Addr, a Addr) int {
	l, h := 0, len(sorted)
	for l < h {
		m := int(uint(l+h) >> 1)
		if sorted[m].Less(a) {
			l = m + 1
		} else {
			h = m
		}
	}
	return l
}

// Next returns the address numerically one above a, wrapping at the top of
// the address space.
func (a Addr) Next() Addr {
	lo := a.lo + 1
	hi := a.hi
	if lo == 0 {
		hi++
	}
	return Addr{hi: hi, lo: lo}
}

// Prev returns the address numerically one below a, wrapping at zero.
func (a Addr) Prev() Addr {
	lo := a.lo - 1
	hi := a.hi
	if a.lo == 0 {
		hi--
	}
	return Addr{hi: hi, lo: lo}
}

// MaxAddr returns the highest address (ff…ff), the top of the address
// space — the upper bound of an interval table's final gap.
func MaxAddr() Addr { return Addr{hi: ^uint64(0), lo: ^uint64(0)} }

// Bit returns bit i of the address (0 = most significant bit).
func (a Addr) Bit(i int) byte {
	if i < 64 {
		return byte(a.hi >> (63 - i) & 1)
	}
	return byte(a.lo >> (127 - i) & 1)
}

// Nybble returns the i-th 4-bit group of the address, i in [0,32).
// Nybble 0 is the most significant hex character. The paper numbers
// nybbles 1-32; callers in internal/entropy adjust by one.
func (a Addr) Nybble(i int) byte {
	if i < 16 {
		return byte(a.hi >> (60 - 4*i) & 0xf)
	}
	return byte(a.lo >> (124 - 4*i) & 0xf)
}

// WithNybble returns a copy of a with nybble i set to v (low 4 bits used).
func (a Addr) WithNybble(i int, v byte) Addr {
	val := uint64(v & 0xf)
	if i < 16 {
		shift := uint(60 - 4*i)
		return Addr{hi: a.hi&^(0xf<<shift) | val<<shift, lo: a.lo}
	}
	shift := uint(124 - 4*i)
	return Addr{hi: a.hi, lo: a.lo&^(0xf<<shift) | val<<shift}
}

// Nybbles returns all 32 nybbles of the address most-significant first.
func (a Addr) Nybbles() [32]byte {
	var n [32]byte
	for i := 0; i < 32; i++ {
		n[i] = a.Nybble(i)
	}
	return n
}

// AddrFromNybbles assembles an address from 32 nybbles (low 4 bits each).
func AddrFromNybbles(n [32]byte) Addr {
	var a Addr
	for i := 0; i < 16; i++ {
		a.hi = a.hi<<4 | uint64(n[i]&0xf)
	}
	for i := 16; i < 32; i++ {
		a.lo = a.lo<<4 | uint64(n[i]&0xf)
	}
	return a
}

// Hash64 returns a well-mixed 64-bit hash of the address. Hi and Lo are
// absorbed separately through the splitmix64 finalizer, so addresses that
// collide under a plain Hi^Lo fold still hash apart. It is the key for
// every hash-based decision on the address hot paths — shard assignment,
// deterministic sampling, per-host epoch draws — replacing the old
// pattern of hashing the formatted String() (an allocation plus a
// 39-byte format per call).
func (a Addr) Hash64() uint64 {
	h := hash64.Mix(a.hi + 0x9e3779b97f4a7c15)
	return hash64.Mix(h ^ a.lo)
}

// IID returns the low 64 bits, the interface identifier under the
// ubiquitous /64 subnetting convention.
func (a Addr) IID() uint64 { return a.lo }

// IIDHammingWeight returns the number of bits set in the interface
// identifier. Low weights indicate counter-style assignment; weights near
// 32 indicate pseudo-random (privacy extension) addresses. See §8 of the
// paper where this distinguishes servers from clients.
func (a Addr) IIDHammingWeight() int { return bits.OnesCount64(a.lo) }

// IsSLAAC reports whether the interface identifier carries the 0xfffe
// marker in bytes 11-12 that EUI-64 expansion inserts (the paper's "ff:fe"
// test for SLAAC MAC-derived addresses).
func (a Addr) IsSLAAC() bool { return a.lo>>24&0xffff == 0xfffe }

// MAC returns the 48-bit MAC address recovered from an EUI-64 interface
// identifier and true, or false if the address is not SLAAC MAC-derived.
// Recovery flips the universal/local bit per RFC 4291 appendix A.
func (a Addr) MAC() ([6]byte, bool) {
	var m [6]byte
	if !a.IsSLAAC() {
		return m, false
	}
	m[0] = byte(a.lo>>56) ^ 0x02
	m[1] = byte(a.lo >> 48)
	m[2] = byte(a.lo >> 40)
	m[3] = byte(a.lo >> 16)
	m[4] = byte(a.lo >> 8)
	m[5] = byte(a.lo)
	return m, true
}

// FromMAC builds a SLAAC EUI-64 interface identifier from a MAC address
// and combines it with the given /64 network (low 64 bits of network are
// ignored).
func FromMAC(network Addr, mac [6]byte) Addr {
	iid := uint64(mac[0]^0x02)<<56 | uint64(mac[1])<<48 | uint64(mac[2])<<40 |
		0xff_fe<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	return Addr{hi: network.hi, lo: iid}
}

// String returns the RFC 5952 canonical text form: lowercase hex, leading
// zeros suppressed, and the leftmost longest run of two or more zero
// groups compressed to "::".
func (a Addr) String() string {
	var g [8]uint16
	for i := 0; i < 4; i++ {
		g[i] = uint16(a.hi >> (48 - 16*i))
	}
	for i := 0; i < 4; i++ {
		g[4+i] = uint16(a.lo >> (48 - 16*i))
	}

	// Find leftmost longest run of >=2 zero groups.
	best, bestLen := -1, 1 // require length >= 2
	for i := 0; i < 8; {
		if g[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && g[j] == 0 {
			j++
		}
		if j-i > bestLen {
			best, bestLen = i, j-i
		}
		i = j
	}

	buf := make([]byte, 0, 39)
	appendGroup := func(v uint16) {
		const hex = "0123456789abcdef"
		started := false
		for s := 12; s >= 0; s -= 4 {
			d := v >> s & 0xf
			if d != 0 || started || s == 0 {
				buf = append(buf, hex[d])
				started = true
			}
		}
	}
	for i := 0; i < 8; i++ {
		if i == best {
			buf = append(buf, ':', ':')
			i += bestLen - 1
			continue
		}
		if len(buf) > 0 && buf[len(buf)-1] != ':' {
			buf = append(buf, ':')
		}
		appendGroup(g[i])
	}
	if len(buf) == 0 { // all zero, no run found means impossible; guard anyway
		return "::"
	}
	return string(buf)
}

// Expanded returns the full 39-character form with all leading zeros, e.g.
// "2001:0db8:0000:0000:0000:0000:0000:0001". Useful for nybble-aligned
// display in reports.
func (a Addr) Expanded() string {
	const hex = "0123456789abcdef"
	buf := make([]byte, 0, 39)
	n := a.Nybbles()
	for i := 0; i < 32; i++ {
		if i > 0 && i%4 == 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hex[n[i]])
	}
	return string(buf)
}

// errors shared by the parsers.
var (
	ErrBadAddress = errors.New("ip6: invalid IPv6 address")
	ErrBadPrefix  = errors.New("ip6: invalid IPv6 prefix")
)

// ParseAddr parses an IPv6 address in any RFC 4291 text form, including
// "::" compression and an embedded dotted-quad IPv4 tail. Like net/netip
// it rejects IPv4 octets with leading zeros ("01"), which some parsers
// read as octal.
func ParseAddr(s string) (Addr, error) {
	var groups [8]uint16
	n := 0         // groups filled
	ellipsis := -1 // index where "::" occurred

	if len(s) == 0 {
		return Addr{}, fmt.Errorf("%w: empty string", ErrBadAddress)
	}
	i := 0
	// Leading "::".
	if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
		ellipsis = 0
		i = 2
		if i == len(s) {
			return Addr{}, nil // "::"
		}
	} else if s[0] == ':' {
		return Addr{}, fmt.Errorf("%w: %q starts with single colon", ErrBadAddress, s)
	}

	for i < len(s) {
		if n == 8 {
			return Addr{}, fmt.Errorf("%w: %q has too many groups", ErrBadAddress, s)
		}
		// Try an IPv4 tail if there is a dot in the remaining text.
		if hasDot(s[i:]) {
			if n > 6 {
				return Addr{}, fmt.Errorf("%w: %q no room for IPv4 tail", ErrBadAddress, s)
			}
			v4, err := parseIPv4(s[i:])
			if err != nil {
				return Addr{}, fmt.Errorf("%w: %q bad IPv4 tail: %v", ErrBadAddress, s, err)
			}
			groups[n] = uint16(v4 >> 16)
			groups[n+1] = uint16(v4)
			n += 2
			i = len(s)
			break
		}
		// Parse one hex group.
		v, adv, err := parseHexGroup(s[i:])
		if err != nil {
			return Addr{}, fmt.Errorf("%w: %q: %v", ErrBadAddress, s, err)
		}
		groups[n] = v
		n++
		i += adv
		if i == len(s) {
			break
		}
		if s[i] != ':' {
			return Addr{}, fmt.Errorf("%w: %q unexpected character %q", ErrBadAddress, s, s[i])
		}
		i++
		if i < len(s) && s[i] == ':' {
			if ellipsis >= 0 {
				return Addr{}, fmt.Errorf("%w: %q has two '::'", ErrBadAddress, s)
			}
			ellipsis = n
			i++
			if i == len(s) {
				break
			}
		} else if i == len(s) {
			return Addr{}, fmt.Errorf("%w: %q ends with single colon", ErrBadAddress, s)
		}
	}

	if ellipsis < 0 {
		if n != 8 {
			return Addr{}, fmt.Errorf("%w: %q has %d groups, want 8", ErrBadAddress, s, n)
		}
	} else {
		if n == 8 {
			return Addr{}, fmt.Errorf("%w: %q '::' in full-length address", ErrBadAddress, s)
		}
		// Shift the groups after the ellipsis to the end.
		tail := n - ellipsis
		for k := 0; k < tail; k++ {
			groups[7-k] = groups[n-1-k]
		}
		for k := ellipsis; k < 8-tail; k++ {
			groups[k] = 0
		}
	}

	var a Addr
	for k := 0; k < 4; k++ {
		a.hi = a.hi<<16 | uint64(groups[k])
	}
	for k := 4; k < 8; k++ {
		a.lo = a.lo<<16 | uint64(groups[k])
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func hasDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
		if s[i] == ':' {
			return false
		}
	}
	return false
}

func parseHexGroup(s string) (uint16, int, error) {
	var v uint32
	i := 0
	for i < len(s) && i < 4 {
		c := s[i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			if i == 0 {
				return 0, 0, fmt.Errorf("empty group")
			}
			return uint16(v), i, nil
		}
		v = v<<4 | d
		i++
	}
	if i == 0 {
		return 0, 0, fmt.Errorf("empty group")
	}
	if i == 4 && i < len(s) && isHexDigit(s[i]) {
		return 0, 0, fmt.Errorf("group too long")
	}
	return uint16(v), i, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func parseIPv4(s string) (uint32, error) {
	var v uint32
	part := 0
	val := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if val < 0 || val > 255 {
				return 0, fmt.Errorf("octet out of range")
			}
			v = v<<8 | uint32(val)
			part++
			val = -1
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad octet character %q", c)
		}
		if val == 0 {
			return 0, fmt.Errorf("octet with leading zero")
		}
		if val < 0 {
			val = 0
		}
		val = val*10 + int(c-'0')
		if val > 999 {
			return 0, fmt.Errorf("octet too long")
		}
	}
	if part != 4 {
		return 0, fmt.Errorf("want 4 octets, got %d", part)
	}
	return v, nil
}
