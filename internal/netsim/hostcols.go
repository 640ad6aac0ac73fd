package netsim

import (
	"reflect"
	"runtime"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/wire"
)

// The columnar world plane.
//
// Construction (plan.go) is two-phase: every network's farm, stale
// siblings and routers are planned concurrently into per-network
// buffers, then one serial pass in announcement order numbers the
// domains and registers the hosts, first insertion winning, into a
// builder sized for them all — the AoS representation earlier versions
// kept for the world's whole lifetime, indexed by an open-addressed
// table. Sealing replaces it with one sorted []ip6.Addr column, sorted
// by the parallel ip6.Sort, plus SoA parallel columns gathered by
// sorted position: the sorted column IS the membership structure (the
// pattern the hitlist planes use), so the index and the 40-byte padded
// Host structs are gone, and a host costs 48 bytes flat (16 addr + 4
// ASN + 1 meta + 1 serves + 8 machine + 8 profile + 2 death + 4 domain
// + 4 rank).
//
// Lookup strategies:
//   - point lookups (locate for ProbeLanes' sorted probe runs, Probe's
//     and HostAt's single address): hostRun, an amortized merge cursor
//     that caches the hit-or-gap run containing the last query and
//     advances monotonically — one or two compares per address on sorted
//     input instead of a map probe, one ip6.Search when fresh;
//   - enumeration in insertion order (Hosts, and everything downstream
//     that is order-sensitive): the byRank permutation maps insertion
//     rank to sorted position, so the sealed plane reproduces the
//     builder's order byte-for-byte.

// hostMeta packs HostClass (low 3 bits) and flag bits into one byte.
const (
	hostClassMask uint8 = 0x07
	hostFlagQUIC  uint8 = 0x08 // QUICFlaky
)

// hostCols is the sealed SoA host plane. All columns are parallel and
// sorted by address; byRank is the insertion-order permutation. profile
// is derived from machine by seal (fillProfiles).
type hostCols struct {
	addr     []ip6.Addr
	asn      []bgp.ASN
	meta     []uint8
	serves   []wire.RespMask
	machine  []uint64
	profile  []profile
	deathDay []int16
	domain   []uint32
	byRank   []int32
}

func (hc *hostCols) n() int { return len(hc.addr) }

func (hc *hostCols) classAt(i int32) HostClass {
	return HostClass(hc.meta[i] & hostClassMask)
}

// hostAt reconstructs the AoS Host view of sorted position i.
func (hc *hostCols) hostAt(i int32) Host {
	return Host{
		Addr:      hc.addr[i],
		ASN:       hc.asn[i],
		Class:     hc.classAt(i),
		Serves:    hc.serves[i],
		Machine:   hc.machine[i],
		DeathDay:  hc.deathDay[i],
		QUICFlaky: hc.meta[i]&hostFlagQUIC != 0,
		Domain:    hc.domain[i],
	}
}

// packMeta packs class and flags into the meta byte.
func packMeta(class HostClass, quicFlaky bool) uint8 {
	m := uint8(class) & hostClassMask
	if quicFlaky {
		m |= hostFlagQUIC
	}
	return m
}

// worldBuilder is the construction-time host registry: the hosts in
// insertion order, the AoS representation the sealed columns replace,
// and an open-addressed index over them. planBulk sizes it and, with
// planRDNS, fills it; seal gathers it into columns and drops it
// (worldpin_test keeps it as the AoS reference).
type worldBuilder struct {
	arr []Host
	// index is linear probing from the low bits of Addr.Hash64: a slot is
	// 0 when empty, else the hash's high 32 bits over the host's rank + 1,
	// so a probe reads arr only on a matching tag. Its length is a power
	// of two, at most ¾ of its slots taken.
	index []uint64
}

// newWorldBuilder returns a builder with room for n hosts.
func newWorldBuilder(n int) *worldBuilder {
	b := &worldBuilder{arr: make([]Host, 0, n)}
	b.reserve(n)
	return b
}

const rankMask = 1<<32 - 1

// find returns the index slot holding a, or, when a is absent, the empty
// slot ending its probe run; h is a's Hash64.
func (b *worldBuilder) find(a ip6.Addr, h uint64) (slot uint64, ok bool) {
	mask := uint64(len(b.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := b.index[i]
		if s == 0 {
			return i, false
		}
		if s&^rankMask == h&^rankMask && b.arr[s&rankMask-1].Addr == a {
			return i, true
		}
	}
}

// reserve sizes the index for n hosts, rehashing the registered ones.
func (b *worldBuilder) reserve(n int) {
	if n <= len(b.index)/4*3 {
		return
	}
	slots := 16
	for n > slots/4*3 {
		slots *= 2
	}
	b.index = make([]uint64, slots)
	for r := range b.arr {
		h := b.arr[r].Addr.Hash64()
		slot, _ := b.find(b.arr[r].Addr, h)
		b.index[slot] = h&^rankMask | uint64(r+1)
	}
}

// add registers a host; the first insertion of an address wins.
func (b *worldBuilder) add(h Host) {
	b.reserve(len(b.arr) + 1)
	hash := h.Addr.Hash64()
	slot, dup := b.find(h.Addr, hash)
	if dup {
		return
	}
	b.arr = append(b.arr, h)
	b.index[slot] = hash&^rankMask | uint64(len(b.arr))
}

// rank returns the insertion rank of the registered address a.
func (b *worldBuilder) rank(a ip6.Addr) int32 {
	slot, _ := b.find(a, a.Hash64())
	return int32(b.index[slot]&rankMask) - 1
}

// sealHosts gathers a builder's hosts into exact-size columns sorted by
// address: the address column is copied out and sorted by ip6.Sort, then
// each sorted position looks its host's rank up in the builder's index
// and gathers the other columns from it, both fanned out over GOMAXPROCS.
// byRank[r] is the sorted position of the host with insertion rank r.
func sealHosts(b *worldBuilder) hostCols {
	n := len(b.arr)
	workers := runtime.GOMAXPROCS(0)
	hc := makeHostCols(n)
	par.Ranges(n, workers, 4096, 1, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			hc.addr[r] = b.arr[r].Addr
		}
	})
	ip6.Sort(hc.addr, workers)
	par.Ranges(n, workers, 4096, 1, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			rank := b.rank(hc.addr[pos])
			hc.setFrom(int32(pos), &b.arr[rank])
			hc.byRank[rank] = int32(pos)
		}
	})
	return hc
}

func makeHostCols(n int) hostCols {
	return hostCols{
		addr:     make([]ip6.Addr, n),
		asn:      make([]bgp.ASN, n),
		meta:     make([]uint8, n),
		serves:   make([]wire.RespMask, n),
		machine:  make([]uint64, n),
		deathDay: make([]int16, n),
		domain:   make([]uint32, n),
		byRank:   make([]int32, n),
	}
}

// setFrom fills sorted position pos from h, all but the address column,
// which sealHosts sorts in place.
func (hc *hostCols) setFrom(pos int32, h *Host) {
	hc.asn[pos] = h.ASN
	hc.meta[pos] = packMeta(h.Class, h.QUICFlaky)
	hc.serves[pos] = h.Serves
	hc.machine[pos] = h.Machine
	hc.deathDay[pos] = h.DeathDay
	hc.domain[pos] = h.Domain
}

// fillProfiles derives the profile column from the machine keys, fanned
// out over the host range (each entry is a pure function of its key).
func (hc *hostCols) fillProfiles() {
	hc.profile = make([]profile, hc.n())
	par.Ranges(hc.n(), runtime.GOMAXPROCS(0), 4096, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hc.profile[i] = newProfile(hc.machine[i])
		}
	})
}

// hostRun is the merge cursor over the sorted host column:
// the parallel of ip6.IntervalCursor for point membership. It caches the *run*
// containing the last query — the exact address it hit, or the gap
// between neighbouring hosts it missed into — so a query inside the
// cached run is answered in at most two compares. A forward miss
// advances linearly a few steps (sorted probe runs and counter-style
// host blocks interleave tightly, so the next host is almost always
// adjacent) before falling back to binary search on the remaining
// suffix; a backward miss restarts the search from the left. On sorted
// input every column entry is passed at most once, so the whole batch
// resolves in O(len(batch) + len(columns)) — O(1) amortized per probe.
type hostRun struct {
	hc     *hostCols
	lo, hi ip6.Addr // cached run bounds (inclusive)
	idx    int32    // matching position when hit
	next   int32    // first position with address > hi
	hit    bool
	valid  bool
}

// hostRunAdvance bounds the linear walk of a forward miss before the
// cursor falls back to binary search.
const hostRunAdvance = 8

func (c *hostRun) lookup(a ip6.Addr) (int32, bool) {
	if c.valid && !a.Less(c.lo) && a.Compare(c.hi) <= 0 {
		return c.idx, c.hit
	}
	col := c.hc.addr
	n := int32(len(col))
	var pos int32
	if c.valid && c.hi.Less(a) {
		// Forward of the cached run: walk a few entries, then search the
		// remaining suffix.
		pos = c.next
		steps := 0
		for pos < n && col[pos].Less(a) {
			pos++
			steps++
			if steps >= hostRunAdvance {
				pos += int32(ip6.Search(col[pos:], a))
				break
			}
		}
	} else {
		pos = int32(ip6.Search(col, a))
	}
	c.valid = true
	if pos < n && col[pos] == a {
		c.lo, c.hi = a, a
		c.idx, c.next, c.hit = pos, pos+1, true
		return pos, true
	}
	// A gap run: from past the previous host (or the space's bottom) to
	// before the next (or the space's top).
	c.idx, c.next, c.hit = 0, pos, false
	if pos > 0 {
		c.lo = col[pos-1].Next()
	} else {
		c.lo = ip6.Addr{}
	}
	if pos < n {
		c.hi = col[pos].Prev()
	} else {
		c.hi = ip6.MaxAddr()
	}
	return 0, false
}

// WorldMem is the world plane's self-measured footprint, in bytes.
type WorldMem struct {
	NHosts int
	// Hosts is the sealed host-column plane (the part the map/AoS
	// representation dominated).
	Hosts int64
	// Topo covers flat networks, regions, ISP pools, tier-1 routers and
	// the compiled resolution tables.
	Topo int64
	// Records covers stale DNS, alias records and rDNS addresses — input
	// data for the sources, not lookup state.
	Records int64
}

// Total returns the full accounted footprint.
func (m WorldMem) Total() int64 { return m.Hosts + m.Topo + m.Records }

// BytesPerHost returns the host-plane cost per finite host.
func (m WorldMem) BytesPerHost() float64 {
	if m.NHosts == 0 {
		return 0
	}
	return float64(m.Hosts) / float64(m.NHosts)
}

// Exact element sizes for the flat topology columns, resolved once via
// reflection so the accounting tracks struct layout changes.
var (
	networkBytes     = int64(reflect.TypeOf(network{}).Size())
	aliasRegionBytes = int64(reflect.TypeOf(AliasRegion{}).Size())
	lineISPBytes     = int64(reflect.TypeOf(lineISP{}).Size())
	staleRecordBytes = int64(reflect.TypeOf(StaleRecord{}).Size())
	aliasRecordBytes = int64(reflect.TypeOf(AliasRecord{}).Size())
	intervalBytes    = int64(reflect.TypeOf(ip6.Interval[int32]{}).Size())
)

// MemBytes accounts the world's memory exactly from column lengths (the
// ShardSet.MemBytes idiom): caps × element sizes, no sampling.
func (in *Internet) MemBytes() WorldMem {
	hc := &in.hc
	var m WorldMem
	m.NHosts = hc.n()
	m.Hosts = int64(cap(hc.addr))*16 +
		int64(cap(hc.asn))*4 + int64(cap(hc.meta)) + int64(cap(hc.serves)) +
		int64(cap(hc.machine))*8 + int64(cap(hc.profile))*8 + int64(cap(hc.deathDay))*2 +
		int64(cap(hc.domain))*4 + int64(cap(hc.byRank))*4
	m.Topo = int64(cap(in.nets))*networkBytes +
		int64(cap(in.regions))*aliasRegionBytes +
		int64(cap(in.isps))*lineISPBytes +
		int64(cap(in.tier1))*16 +
		int64(cap(in.tabs.alias)+cap(in.tabs.nets)+cap(in.tabs.pools))*intervalBytes
	m.Records = int64(cap(in.stale))*staleRecordBytes +
		int64(cap(in.aliasRecords))*aliasRecordBytes +
		int64(cap(in.rdns))*16
	return m
}
