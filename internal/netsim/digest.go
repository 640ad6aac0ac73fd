package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"expanse/internal/ip6"
)

// Digest folds the observable content of a constructed world into a
// SHA-256. It is written against the enumeration API — host lists in
// insertion order, regions and networks in construction order, line pools,
// client snapshots, traceroute paths — so its value is independent of the
// internal representation. The columnar world-plane refactor is pinned
// against digests recorded with the map/AoS implementation: identical
// digests mean world construction is byte-identical, not merely similar.
//
// rDNS addresses are hashed as a sorted set: the PTR population is
// consumed as a set (dnssim.NewRTree sorts its own copy into the reverse
// zone's column), so slice order is not an observable of the world.
func (in *Internet) Digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wAddr := func(a ip6.Addr) { w64(a.Hi()); w64(a.Lo()) }
	wPrefix := func(p ip6.Prefix) { wAddr(p.Addr()); w64(uint64(p.Bits())) }
	wBool := func(b bool) {
		if b {
			w64(1)
		} else {
			w64(0)
		}
	}

	hosts := in.Hosts()
	w64(uint64(len(hosts)))
	for _, hst := range hosts {
		wAddr(hst.Addr)
		w64(uint64(hst.ASN))
		w64(uint64(hst.Class))
		w64(uint64(hst.Serves))
		w64(hst.Machine)
		w64(uint64(int64(hst.DeathDay)))
		wBool(hst.QUICFlaky)
		w64(uint64(hst.Domain))
	}

	regions := in.AliasedRegions()
	w64(uint64(len(regions)))
	for _, r := range regions {
		wPrefix(r.Prefix)
		w64(uint64(r.ASN))
		w64(r.Machine)
		w64(uint64(r.Serves))
		w64(uint64(r.Quirks))
		wPrefix(r.Hole)
		w64(math.Float64bits(r.Loss))
	}

	stale := in.StaleRecords()
	w64(uint64(len(stale)))
	for _, s := range stale {
		wAddr(s.Addr)
		w64(uint64(s.ASN))
		w64(uint64(s.Domain))
	}

	recs := in.AliasRecords()
	w64(uint64(len(recs)))
	for _, rec := range recs {
		wAddr(rec.Addr)
		w64(uint64(rec.ASN))
		w64(uint64(rec.Domain))
		wPrefix(in.recordRegionPrefix(rec))
	}

	rdns := append([]ip6.Addr(nil), in.RDNSAddrs()...)
	sort.Slice(rdns, func(i, j int) bool { return rdns[i].Less(rdns[j]) })
	w64(uint64(len(rdns)))
	for _, a := range rdns {
		wAddr(a)
	}

	nets := in.Networks()
	w64(uint64(len(nets)))
	for _, nw := range nets {
		wPrefix(nw.Prefix)
		w64(uint64(nw.ASN))
		w64(uint64(nw.Kind))
		w64(uint64(nw.Scheme))
		wBool(nw.IsISP)
	}

	lines := in.LineHosts()
	w64(uint64(len(lines)))
	for _, lh := range lines {
		w64(uint64(lh.ASN))
		w64(lh.Line)
		wAddr(lh.Addr(0))
		wAddr(lh.Addr(3))
		wBool(lh.Rotates())
	}

	for _, day := range []int{0, 3} {
		snaps := in.ClientSnapshots(day, 4096)
		w64(uint64(len(snaps)))
		for _, s := range snaps {
			wAddr(s.Addr)
			w64(uint64(s.ASN))
			h.Write([]byte(s.Country))
		}
	}

	// Traceroute sample: paths fold in the tier-1 transit set, per-network
	// router subnets, and CPE resolution.
	for i, lh := range lines {
		if i >= 64 {
			break
		}
		for _, day := range []int{0, 2} {
			path := in.TraceroutePath(lh.Addr(day), day)
			w64(uint64(len(path)))
			for _, hop := range path {
				wAddr(hop.Addr)
				w64(uint64(hop.ASN))
			}
		}
	}

	var out [32]byte
	h.Sum(out[:0])
	return out
}

// recordRegionPrefix resolves the aliased prefix an AliasRecord points
// into, keeping Digest independent of how the record stores its region.
func (in *Internet) recordRegionPrefix(rec AliasRecord) ip6.Prefix {
	return in.regions[rec.Region].Prefix
}
