// Package dnssim is the DNS substrate of the simulation: forward zones
// whose AAAA records point at simulated hosts (including dynamic-DNS
// names that follow renumbering subscriber lines), visibility tags that
// model which collection channel can see a domain (zone files, CT logs,
// Rapid7 FDNS, AXFR, blacklists), and a reverse ip6.arpa zone with
// NXDOMAIN semantics for the rDNS walking study (§8).
package dnssim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

// Vis is a bitmask of collection channels a domain is visible to.
type Vis uint8

// Visibility channels, mirroring the paper's sources (§3).
const (
	VisZoneFile  Vis = 1 << iota // zone files + toplists → the DL source
	VisCT                        // TLS certificate logged in CT
	VisFDNS                      // appears in Rapid7 FDNS ANY data
	VisAXFR                      // zone allows AXFR (TLDR-style transfer)
	VisBlacklist                 // listed by Spamhaus/APWG/Phishtank
)

// Has reports whether channel c is in the mask.
func (v Vis) Has(c Vis) bool { return v&c != 0 }

// Domain is one name with its resolution target.
type Domain struct {
	Name string
	Vis  Vis
	// Static is the fixed AAAA target (zero when Line is used).
	Static ip6.Addr
	// line, when non-nil, resolves dynamically per day.
	line *netsim.LineHost
}

// Resolve returns the domain's AAAA record on the given day.
func (d *Domain) Resolve(day int) ip6.Addr {
	if d.line != nil {
		return d.line.Addr(day)
	}
	return d.Static
}

// Dynamic reports whether the domain re-resolves over time.
func (d *Domain) Dynamic() bool { return d.line != nil }

// Server is the simulated DNS view of a world.
type Server struct {
	domains []Domain
	rtree   *RTree
}

func visFor(name string, class string) Vis {
	h := hash64.String(name)
	p := func(bit uint, prob float64) Vis {
		if float64(h>>(bit*8)&0xff)/256 < prob {
			return 1 << bit
		}
		return 0
	}
	switch class {
	case "farm": // hosted servers: zone files + CT dominate
		return p(0, 0.55) | p(1, 0.50) | p(2, 0.25) | p(3, 0.04) | p(4, 0.015)
	case "alias": // CDN customer names: CT-heavy (certificates per customer)
		return p(0, 0.40) | p(1, 0.75) | p(2, 0.10) | p(3, 0.01) | p(4, 0.02)
	case "nas": // dyndns self-hosting: FDNS ANY lookups see them
		return p(0, 0.10) | p(1, 0.06) | p(2, 0.80) | p(3, 0.02)
	case "stale":
		return p(0, 0.50) | p(1, 0.35) | p(2, 0.30) | p(3, 0.03) | p(4, 0.01)
	}
	return 0
}

// New builds the DNS view of a world: every domain-carrying host, alias
// record, stale record, and line-hosted NAS gets a name; the reverse zone
// covers the world's rDNS population.
func New(world *netsim.Internet) *Server {
	s := &Server{}

	for _, h := range world.Hosts() {
		if h.Domain == 0 {
			continue
		}
		name := fmt.Sprintf("host%d.as%d.example.", h.Domain, h.ASN)
		s.domains = append(s.domains, Domain{
			Name: name, Vis: visFor(name, "farm"), Static: h.Addr,
		})
	}
	for _, r := range world.AliasRecords() {
		name := fmt.Sprintf("cust%d.cdn%d.example.", r.Domain, r.ASN)
		s.domains = append(s.domains, Domain{
			Name: name, Vis: visFor(name, "alias"), Static: r.Addr,
		})
	}
	for _, r := range world.StaleRecords() {
		name := fmt.Sprintf("old%d.as%d.example.", r.Domain, r.ASN)
		s.domains = append(s.domains, Domain{
			Name: name, Vis: visFor(name, "stale"), Static: r.Addr,
		})
	}
	lines := world.LineHosts()
	for i := range lines {
		lh := lines[i]
		name := fmt.Sprintf("nas-%d.as%d.dyn-example.", lh.Line, lh.ASN)
		s.domains = append(s.domains, Domain{
			Name: name, Vis: visFor(name, "nas"), line: &lines[i],
		})
	}
	s.rtree = NewRTree(world.RDNSAddrs())
	return s
}

// Domains returns all domains (shared slice; callers must not modify).
func (s *Server) Domains() []Domain { return s.domains }

// Reverse returns the ip6.arpa zone.
func (s *Server) Reverse() *RTree { return s.rtree }

// ReverseName renders the ip6.arpa name of an address, e.g.
// "1.0.0.0.….8.b.d.0.1.0.0.2.ip6.arpa." — the walker's query format.
func ReverseName(a ip6.Addr) string {
	var b strings.Builder
	n := a.Nybbles()
	for i := 31; i >= 0; i-- {
		b.WriteByte(hexDigit(n[i]))
		b.WriteByte('.')
	}
	b.WriteString("ip6.arpa.")
	return b.String()
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

// RCode is a DNS response code subset for tree walking.
type RCode int

// Walk-relevant response codes: NXDOMAIN prunes a whole subtree, NOERROR
// (empty non-terminal) means descend, PTR is a terminal record.
const (
	NXDomain RCode = iota
	NoErrorEmpty
	HasPTR
)

// RTree is the ip6.arpa reverse zone: the PTR addresses as one sorted
// column. A name under ip6.arpa is a nybble path (reversed in the name,
// MSB-first here), and the names below it are the addresses sharing that
// prefix — one contiguous run of the column. A name therefore exists iff
// the first address at or above the run's lowest address still carries
// the prefix, and Query answers with one lower-bound search. The zone is
// read-only once built, so any number of walkers may share it.
type RTree struct {
	addrs []ip6.Addr // ascending; duplicates are harmless
}

// NewRTree indexes the given addresses (a sorted copy; order and
// duplicates in the input do not matter).
func NewRTree(addrs []ip6.Addr) *RTree {
	s := slices.Clone(addrs)
	slices.SortFunc(s, ip6.Addr.Compare)
	return &RTree{addrs: s}
}

// Query resolves a partial path of nybbles (MSB-first, up to 32 deep) and
// returns the walking-relevant rcode: the root always exists, a path with
// a digit above 15 or beyond 32 nybbles never does, and a full path
// present in the zone holds a PTR.
func (t *RTree) Query(path []byte) RCode {
	n := len(path)
	if n == 0 {
		return NoErrorEmpty
	}
	if n > 32 {
		return NXDomain
	}
	// The run's lowest address (path, then zeros): four big-endian words
	// of eight one-nybble bytes, each folded into 32 bits. A digit above
	// 15 shows as a high nybble set in some byte.
	var buf [32]byte
	copy(buf[:], path)
	var w [4]uint64
	var bad uint64
	for i := range w {
		x := binary.BigEndian.Uint64(buf[8*i:])
		bad |= x
		x = (x | x>>4) & 0x00ff00ff00ff00ff
		x = (x | x>>8) & 0x0000ffff0000ffff
		w[i] = (x | x>>16) & 0xffffffff
	}
	if bad&0xf0f0f0f0f0f0f0f0 != 0 {
		return NXDomain
	}
	hi, lo := w[0]<<32|w[1], w[2]<<32|w[3]
	mhi, mlo := ^uint64(0), ^uint64(0)<<(128-4*n)
	if n < 16 {
		mhi, mlo = ^uint64(0)<<(64-4*n), 0
	}
	a := t.addrs
	l, h := 0, len(a)
	for l < h {
		m := int(uint(l+h) >> 1)
		if a[m].Hi() < hi || (a[m].Hi() == hi && a[m].Lo() < lo) {
			l = m + 1
		} else {
			h = m
		}
	}
	if l == len(a) || (a[l].Hi()^hi)&mhi != 0 || (a[l].Lo()^lo)&mlo != 0 {
		return NXDomain
	}
	if n == 32 {
		return HasPTR
	}
	return NoErrorEmpty
}
