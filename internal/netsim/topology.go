package netsim

import (
	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

// Traceroute topology. Paths are deterministic per (destination network,
// day): a couple of shared transit routers, then the destination
// operator's core routers, then — for subscriber space — the line's CPE.
// This is the substrate for the scamper source (§3) whose router-address
// harvest is dominated by SLAAC home routers.
//
// Which routers a path crosses is a pure function of the destination
// (HopRefs); only whether a core router answers (its weekly anonymity
// draw) and where a subscriber line's CPE currently sits depend on the
// day (CoreHop, CPEHop). TraceroutePath resolves one destination's
// references in path order; the scamper source ORs the references of
// many destinations together and resolves each distinct router once.

// Hop is one traceroute hop.
type Hop struct {
	Addr ip6.Addr
	ASN  bgp.ASN
}

// HopRefs references the routers on the path towards one destination
// without resolving them to addresses: indices and IDs only, returned by
// value.
type HopRefs struct {
	// Transit indexes the tier-1 routers crossed, in path order; the same
	// router may appear twice. Resolve with TransitHop.
	Transit  [3]int32
	NTransit uint8
	// Core holds the core-router slots (0-5) of network Net's router
	// subnet, in path order, repeats included. Resolve with CoreHop.
	Core  [3]uint8
	NCore uint8
	// Net is the destination's most specific announcement, -1 if
	// unrouted.
	Net int32
	// Pool is the subscriber pool whose line CPE is the last hop, -1
	// outside subscriber space. Resolve with CPEHop.
	Pool int32
}

// TopologySize returns the ranges HopRefs draws from: Transit indices
// are below transit, Net and Pool IDs below nets.
func (in *Internet) TopologySize() (transit, nets int) { return len(in.tier1), len(in.nets) }

// HopRefs returns the hop references of the path towards dst. It reads
// only the sealed tables and allocates nothing.
func (in *Internet) HopRefs(dst ip6.Addr) HopRefs {
	r := HopRefs{Net: in.networkOf(dst), Pool: -1}
	dk := hashAddr(in.key^0x7e4ace, dst)

	// The destination's most specific announcement: its origin AS picks
	// the transit routers, its router subnet the core hops.
	var asn bgp.ASN
	if r.Net >= 0 {
		asn = in.nets[r.Net].asn
	}

	// Transit: 2-3 of the tier-1 routers, selected by destination ASN so
	// paths are stable but diverse.
	if len(in.tier1) > 0 {
		tk := hash3(in.key^0x7e4a, uint64(asn), dk%4) // mild path diversity
		r.NTransit = 2 + uint8(tk%2)
		for i := range r.Transit[:r.NTransit] {
			r.Transit[i] = int32(hash3(tk, uint64(i), 0) % uint64(len(in.tier1)))
		}
	}
	if r.Net < 0 {
		return r
	}

	// Destination network core routers: 1-3 from the router subnet.
	nw := &in.nets[r.Net]
	if !nw.routerSub.IsZero() {
		r.NCore = 1 + uint8(hash2(nw.key, dk%8)%3)
		for i := range r.Core[:r.NCore] {
			r.Core[i] = uint8(hash3(nw.key, dk%4, uint64(i)) % 6)
		}
	}
	// Last hop before subscriber targets: the line's CPE.
	r.Pool = in.poolOf(dst)
	return r
}

// TransitHop resolves a HopRefs.Transit index.
func (in *Internet) TransitHop(i int32) (Hop, bool) {
	a := in.tier1[i]
	h, ok := in.HostAt(a)
	return Hop{Addr: a, ASN: h.ASN}, ok
}

// CoreHop resolves one core-router slot of network net on the given
// day. It reports false for a slot no router occupies and for a router
// that is silent that week (anonymous routers are omitted, as in real
// traceroutes).
func (in *Internet) CoreHop(net int32, slot uint8, day int) (Hop, bool) {
	a := ip6.AddrFromUint64(in.nets[net].routerSub.Addr().Hi(), 1+uint64(slot))
	h, ok := in.HostAt(a)
	if !ok || chance(hash3(in.key^0xa404, hashAddr(in.key, a), uint64(day/7)), 0.15) {
		return Hop{}, false
	}
	return Hop{Addr: a, ASN: h.ASN}, true
}

// CPEHop resolves the last hop towards dst inside subscriber pool pool
// (HopRefs.Pool, >= 0): the CPE of the line whose /56 holds dst that
// day. It reports false when no line does or dst is the CPE itself.
func (in *Internet) CPEHop(pool int32, dst ip6.Addr, day int) (Hop, bool) {
	nw := &in.nets[pool]
	isp := &in.isps[nw.isp]
	line, ok := isp.lineContaining(dst, day)
	if !ok {
		return Hop{}, false
	}
	cpe := isp.cpeAddr(line, day)
	return Hop{Addr: cpe, ASN: nw.asn}, cpe != dst
}

// TraceroutePath returns the responsive intermediate hops towards dst on
// the given day, excluding dst itself. Unrouted destinations yield only
// transit hops. Some hops are silent (anonymous routers) and omitted, as
// in real traceroutes.
func (in *Internet) TraceroutePath(dst ip6.Addr, day int) []Hop {
	var path []Hop
	r := in.HopRefs(dst)
	for _, i := range r.Transit[:r.NTransit] {
		if h, ok := in.TransitHop(i); ok {
			path = append(path, h)
		}
	}
	for _, slot := range r.Core[:r.NCore] {
		if h, ok := in.CoreHop(r.Net, slot, day); ok {
			path = append(path, h)
		}
	}
	if r.Pool >= 0 {
		if h, ok := in.CPEHop(r.Pool, dst, day); ok {
			path = append(path, h)
		}
	}
	return path
}
