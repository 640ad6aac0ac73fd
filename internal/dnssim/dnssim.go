// Package dnssim is the DNS substrate of the simulation: forward zones
// whose AAAA records point at simulated hosts (including dynamic-DNS
// names that follow renumbering subscriber lines), visibility tags that
// model which collection channel can see a domain (zone files, CT logs,
// Rapid7 FDNS, AXFR, blacklists), and a reverse ip6.arpa zone with
// NXDOMAIN semantics for the rDNS walking study (§8).
package dnssim

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"

	"expanse/internal/bgp"
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

// class is a domain's kind of name: which template spells it and which
// row of visProb draws its channels.
type class uint8

const (
	farm  class = iota // a hosted server's name
	alias              // a CDN customer's name in an aliased region
	stale              // a record left pointing at a dead address
	nas                // a dyndns name following a subscriber line
)

// names are the classes' name templates: a name is parts[0], a decimal
// ID, parts[1], the decimal ASN, parts[2] — "host7.as64500.example.".
var names = [...][3]string{
	farm:  {"host", ".as", ".example."},
	alias: {"cust", ".cdn", ".example."},
	stale: {"old", ".as", ".example."},
	nas:   {"nas-", ".as", ".dyn-example."},
}

// visProb is each class's chance of being visible to each channel, in
// Vis bit order; channel b draws from byte b of the name's key.
var visProb = [...][5]float64{
	farm:  {0.55, 0.50, 0.25, 0.04, 0.015}, // hosted servers: zone files + CT dominate
	alias: {0.40, 0.75, 0.10, 0.01, 0.02},  // CDN customers: CT-heavy (certificates per customer)
	stale: {0.50, 0.35, 0.30, 0.03, 0.01},
	nas:   {0.10, 0.06, 0.80, 0.02, 0}, // dyndns self-hosting: FDNS ANY lookups see them
}

func visFor(key uint64, c class) Vis {
	var v Vis
	for bit, prob := range visProb[c] {
		if float64(key>>(bit*8)&0xff)/256 < prob {
			v |= 1 << bit
		}
	}
	return v
}

// nameKey is the FNV-1a hash of class c's name for the given ID and ASN,
// folded part by part: the digits go through a stack buffer and the name
// itself is never built.
func nameKey(c class, id uint64, asn bgp.ASN) uint64 {
	var buf [20]byte
	t := &names[c]
	h := hash64.String(t[0])
	h = hash64.Continue(h, strconv.AppendUint(buf[:0], id, 10))
	h = hash64.Continue(h, t[1])
	h = hash64.Continue(h, strconv.AppendUint(buf[:0], uint64(asn), 10))
	return hash64.Continue(h, t[2])
}

// Server is the simulated DNS view of a world. Its domains are rows of
// parallel columns, addressed by index; a name is kept only as its key,
// the FNV-1a hash of its text, which is all the visibility and
// collection-epoch draws read.
type Server struct {
	key    []uint64
	vis    []Vis
	static []ip6.Addr // fixed AAAA target; zero for line-hosted names
	line   []int32    // index into lines, or -1 for a static name
	lines  []netsim.LineHost
	rtree  *RTree
}

// New builds the DNS view of a world: every domain-carrying host, alias
// record, stale record, and line-hosted NAS gets a name; the reverse zone
// covers the world's rDNS population.
func New(world *netsim.Internet) *Server {
	s := &Server{lines: world.LineHosts()}
	for _, h := range world.Hosts() {
		if h.Domain != 0 {
			s.add(farm, uint64(h.Domain), h.ASN, h.Addr, -1)
		}
	}
	for _, r := range world.AliasRecords() {
		s.add(alias, uint64(r.Domain), r.ASN, r.Addr, -1)
	}
	for _, r := range world.StaleRecords() {
		s.add(stale, uint64(r.Domain), r.ASN, r.Addr, -1)
	}
	for i, lh := range s.lines {
		s.add(nas, lh.Line, lh.ASN, ip6.Addr{}, int32(i))
	}
	s.rtree = NewRTree(world.RDNSAddrs())
	return s
}

// add appends one domain row.
func (s *Server) add(c class, id uint64, asn bgp.ASN, static ip6.Addr, line int32) {
	k := nameKey(c, id, asn)
	s.key = append(s.key, k)
	s.vis = append(s.vis, visFor(k, c))
	s.static = append(s.static, static)
	s.line = append(s.line, line)
}

// Len returns the number of domains; they are indexed 0..Len()-1.
func (s *Server) Len() int { return len(s.key) }

// Key returns domain i's key: the FNV-1a hash of its name, a running
// state that hash64.Continue extends.
func (s *Server) Key(i int) uint64 { return s.key[i] }

// Vis returns the channels domain i is visible to.
func (s *Server) Vis(i int) Vis { return s.vis[i] }

// Resolve returns domain i's AAAA record on the given day.
func (s *Server) Resolve(i, day int) ip6.Addr {
	if l := s.line[i]; l >= 0 {
		return s.lines[l].Addr(day)
	}
	return s.static[i]
}

// Dynamic reports whether domain i re-resolves over time.
func (s *Server) Dynamic(i int) bool { return s.line[i] >= 0 }

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
	l := ip6.Search(a, ip6.AddrFromUint64(hi, lo))
	if l == len(a) || (a[l].Hi()^hi)&mhi != 0 || (a[l].Lo()^lo)&mlo != 0 {
		return NXDomain
	}
	if n == 32 {
		return HasPTR
	}
	return NoErrorEmpty
}
