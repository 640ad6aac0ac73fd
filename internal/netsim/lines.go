package netsim

import (
	"expanse/internal/hash64"
	"expanse/internal/ip6"
)

// Subscriber-line pools.
//
// Residential ISPs assign each subscriber line a /56 from a pool and many
// of them renumber lines periodically (German DSL famously re-dials every
// 24h). The CPE (home router) keeps its MAC across renumbering, so its
// SLAAC address moves to a fresh /64 every rotation period. This is what
// makes the paper's scamper source grow explosively (§3: 25.9M addresses,
// 90.7% SLAAC, ZTE/AVM-dominated): daily traceroutes towards subscriber-
// hosted targets keep revealing brand-new CPE addresses.
//
// The pool is functional: the current /56 slot of line i on day d is a
// keyed affine permutation of i, so both directions are O(1):
//
//	slot = (i*g + h(k)) mod 2^bits        (g odd ⇒ invertible)
//	i    = (slot - h(k)) * g⁻¹ mod 2^bits
//
// where k = d / rotationPeriod.

// addrKind distinguishes the computed members of a line's /56.
type addrKind uint8

const (
	lineNone addrKind = iota
	lineCPE
	lineClient
	lineNAS
)

// vendorOUIs are MAC prefixes for CPE vendors, weighted like the paper's
// finding: 47.9% ZTE, 47.7% AVM (Fritzbox), 1.2% Huawei, long tail.
var vendorOUIs = []struct {
	name string
	oui  [3]byte
	w    float64
}{
	{"ZTE", [3]byte{0x28, 0xfd, 0x80}, 0.479},
	{"AVM", [3]byte{0x3c, 0xa6, 0x2f}, 0.477},
	{"Huawei", [3]byte{0x00, 0x66, 0x4b}, 0.012},
	{"other", [3]byte{0x00, 0x00, 0x00}, 0.032}, // tail: OUI derived per line
}

// rotEpoch returns the rotation epoch index for a day.
func (l *lineISP) rotEpoch(day int) uint64 {
	if l.rotate <= 0 {
		return 0
	}
	return uint64(day / l.rotate)
}

// slotOf returns the /56 slot of line i during rotation epoch k.
func (l *lineISP) slotOf(line uint64, k uint64) uint64 {
	mask := uint64(1)<<l.bits - 1
	return (line*l.mulG + hash2(l.key, k)) & mask
}

// lineOf inverts slotOf: which line occupies a slot during epoch k.
func (l *lineISP) lineOf(slot uint64, k uint64) (uint64, bool) {
	mask := uint64(1)<<l.bits - 1
	line := ((slot - hash2(l.key, k)) & mask) * l.invG & mask
	if line >= uint64(l.lines) {
		return 0, false
	}
	return line, true
}

// linePrefix returns line i's /56 during day.
func (l *lineISP) linePrefix(line uint64, day int) ip6.Prefix {
	return l.base.Subprefix(56, l.slotOf(line, l.rotEpoch(day)))
}

// mac returns the stable CPE MAC of a line.
func (l *lineISP) mac(line uint64) [6]byte {
	h := hash2(l.key^0xaabb, line)
	r := unit(h)
	var oui [3]byte
	acc := 0.0
	idx := len(vendorOUIs) - 1
	for i, v := range vendorOUIs {
		acc += v.w
		if r < acc {
			idx = i
			break
		}
	}
	oui = vendorOUIs[idx].oui
	if idx == len(vendorOUIs)-1 {
		// Long tail: synthesize one of ~240 other vendor OUIs.
		v := hash2(l.key^0xcdef, line) % 240
		oui = [3]byte{0x40, byte(v), byte(hash64.Mix(v) >> 3)}
	}
	return [6]byte{oui[0], oui[1], oui[2], byte(h >> 16), byte(h >> 8), byte(h)}
}

// cpeAddr returns the CPE's SLAAC address on the line's first /64 during
// the given day.
func (l *lineISP) cpeAddr(line uint64, day int) ip6.Addr {
	p56 := l.linePrefix(line, day)
	net64 := p56.Subprefix(64, 0)
	return ip6.FromMAC(net64.Addr(), l.mac(line))
}

// clientAddr returns the line's client device address (privacy-extension
// random IID, stable for the rotation epoch) or false if the line has no
// client.
func (l *lineISP) clientAddr(line uint64, day int) (ip6.Addr, bool) {
	if !chance(hash2(l.key^0xc11e47, line), l.clientShare) {
		return ip6.Addr{}, false
	}
	p56 := l.linePrefix(line, day)
	net64 := p56.Subprefix(64, 1)
	iid := hash3(l.key^0x9d1d, line, l.rotEpoch(day)) | 1<<63 // high weight, non-SLAAC
	if iid>>24&0xffff == 0xfffe {
		iid ^= 0xffff << 24 // never collide with the SLAAC marker
	}
	return ip6.AddrFromUint64(net64.Addr().Hi(), iid), true
}

// hostsDomain reports whether a line hosts a dynamic-DNS domain (making it
// a traceroute target and an FDNS/DL entry).
func (l *lineISP) hostsDomain(line uint64) bool {
	return chance(hash2(l.key^0xd07a11, line), l.hostShare)
}

// nasLine reports whether the line's hosted domain points at a separate
// NAS behind the CPE (~30%) rather than at the CPE itself (~70%, the
// common dyndns-on-router setup).
func (l *lineISP) nasLine(line uint64) bool {
	return hash2(l.key^0x4a51, line)%10 < 3
}

// cpeMachine returns the machine key of a line's CPE.
func (l *lineISP) cpeMachine(line uint64) uint64 { return hash2(l.key^0x3c9e, line) }

// clientMachine returns the machine key of a line's client device.
func (l *lineISP) clientMachine(line uint64) uint64 { return hash2(l.key^0x3c11, line) }

// lineContaining returns the line whose current /56 contains addr.
func (l *lineISP) lineContaining(addr ip6.Addr, day int) (uint64, bool) {
	if !l.base.Contains(addr) {
		return 0, false
	}
	// Slot index: bits [base.Bits(), 56) of the address. Slots only occupy
	// the low l.bits of the span; higher slots are never assigned.
	span := 56 - l.base.Bits()
	slot := addr.Hi() >> 8 & (1<<span - 1)
	if l.bits < span && slot>>l.bits != 0 {
		return 0, false
	}
	return l.lineOf(slot, l.rotEpoch(day))
}

// lineAt resolves an address inside the pool to (line, member kind) for
// the given day. It reports lineNone if the address is not a currently
// valid line member.
func (l *lineISP) lineAt(addr ip6.Addr, day int) (uint64, addrKind, bool) {
	line, ok := l.lineContaining(addr, day)
	if !ok {
		return 0, lineNone, false
	}
	if addr == l.cpeAddr(line, day) {
		return line, lineCPE, true
	}
	if ca, ok := l.clientAddr(line, day); ok && addr == ca {
		return line, lineClient, true
	}
	if l.hostsDomain(line) && l.nasLine(line) && addr == l.nasAddr(line, day) {
		return line, lineNAS, true
	}
	return 0, lineNone, false
}

// invOdd computes the multiplicative inverse of odd g modulo 2^64 by
// Newton iteration; masked by callers to the pool width.
func invOdd(g uint64) uint64 {
	x := g // 3 bits correct
	for i := 0; i < 5; i++ {
		x *= 2 - g*x
	}
	return x
}
