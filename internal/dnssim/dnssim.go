// Package dnssim is the DNS substrate of the simulation: forward zones
// whose AAAA records point at simulated hosts (including dynamic-DNS
// names that follow renumbering subscriber lines), visibility tags that
// model which collection channel can see a domain (zone files, CT logs,
// Rapid7 FDNS, AXFR, blacklists), and a reverse ip6.arpa zone with
// NXDOMAIN semantics for the rDNS walking study (§8).
//
// New builds the two zones side by side. The forward zone is rows of
// exact-size parallel columns, filled by row range on several goroutines
// (a row is a pure function of its class, ID, ASN and target), with the
// domain-carrying hosts read by insertion rank rather than copied out of
// the world; the reverse zone is the PTR addresses as one column sorted
// by the parallel ip6.Sort.
package dnssim

import (
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/par"
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
// covers the world's rDNS population. The forward rows and the reverse
// zone build side by side, and each fans out over its share of
// GOMAXPROCS (see fill).
func New(world *netsim.Internet) *Server {
	s := &Server{}
	par.Queue(2, runtime.GOMAXPROCS(0), func(_, i, inner int) {
		if i == 0 {
			s.rtree = newRTree(world.RDNSAddrs(), inner)
		} else {
			s.fill(world, inner)
		}
	})
	return s
}

// fill allocates the forward rows at their exact count and fills them on
// up to workers goroutines, in row order: the domain-carrying hosts in
// Hosts() order, then alias records, stale records and domain-hosting
// lines. A row is a pure function of its class, ID, ASN and target, so
// row ranges fill independently. The hosts are read by insertion rank;
// a first pass counts each rank chunk's domain carriers, which places
// the chunk's rows.
func (s *Server) fill(world *netsim.Internet, workers int) {
	s.lines = world.LineHosts()
	aliases, stales := world.AliasRecords(), world.StaleRecords()
	const minChunk = 4096
	type chunk struct{ lo, hi, row int }
	chunks := make([]chunk, max(workers, 1))
	par.Ranges(world.NumHosts(), workers, minChunk, 1, func(c, lo, hi int) {
		n := 0
		for r := lo; r < hi; r++ {
			if d, _, _ := world.HostDomain(r); d != 0 {
				n++
			}
		}
		chunks[c] = chunk{lo, hi, n}
	})
	for len(chunks) > 1 && chunks[len(chunks)-1].hi == 0 {
		chunks = chunks[:len(chunks)-1] // unused: a small world ran inline
	}
	farms := 0
	for c := range chunks {
		farms, chunks[c].row = farms+chunks[c].row, farms
	}
	n := farms + len(aliases) + len(stales) + len(s.lines)
	s.key = make([]uint64, n)
	s.vis = make([]Vis, n)
	s.static = make([]ip6.Addr, n)
	s.line = make([]int32, n)
	par.Queue(len(chunks), workers, func(_, c, _ int) {
		i := chunks[c].row
		for r := chunks[c].lo; r < chunks[c].hi; r++ {
			if d, asn, addr := world.HostDomain(r); d != 0 {
				s.set(i, farm, uint64(d), asn, addr, -1)
				i++
			}
		}
	})
	par.Ranges(n-farms, workers, minChunk, 1, func(_, lo, hi int) {
		for i := farms + lo; i < farms+hi; i++ {
			switch j := i - farms; {
			case j < len(aliases):
				r := &aliases[j]
				s.set(i, alias, uint64(r.Domain), r.ASN, r.Addr, -1)
			case j < len(aliases)+len(stales):
				r := &stales[j-len(aliases)]
				s.set(i, stale, uint64(r.Domain), r.ASN, r.Addr, -1)
			default:
				l := j - len(aliases) - len(stales)
				s.set(i, nas, s.lines[l].Line, s.lines[l].ASN, ip6.Addr{}, int32(l))
			}
		}
	})
}

// set fills domain row i.
func (s *Server) set(i int, c class, id uint64, asn bgp.ASN, static ip6.Addr, line int32) {
	k := nameKey(c, id, asn)
	s.key[i] = k
	s.vis[i] = visFor(k, c)
	s.static[i] = static
	s.line[i] = line
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
// duplicates in the input do not matter), sorting on GOMAXPROCS
// goroutines.
func NewRTree(addrs []ip6.Addr) *RTree { return newRTree(addrs, runtime.GOMAXPROCS(0)) }

func newRTree(addrs []ip6.Addr, workers int) *RTree {
	s := slices.Clone(addrs)
	ip6.Sort(s, workers)
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
