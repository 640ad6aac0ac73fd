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

// Hop is one traceroute hop.
type Hop struct {
	Addr ip6.Addr
	ASN  bgp.ASN
}

// TraceroutePath returns the responsive intermediate hops towards dst on
// the given day, excluding dst itself. Unrouted destinations yield only
// transit hops. Some hops are silent (anonymous routers) and omitted, as
// in real traceroutes.
func (in *Internet) TraceroutePath(dst ip6.Addr, day int) []Hop {
	var path []Hop
	dk := hashAddr(in.key^0x7e4ace, dst)

	// The destination's most specific announcement: its origin AS picks
	// the transit routers, its router subnet the core hops.
	nwi := in.networkOf(dst)
	var asn bgp.ASN
	if nwi >= 0 {
		asn = in.nets[nwi].asn
	}

	// Transit: 2-3 of the tier-1 routers, selected by destination ASN so
	// paths are stable but diverse.
	tk := hash3(in.key^0x7e4a, uint64(asn), dk%4) // mild path diversity
	nTransit := 2 + int(tk%2)
	for i := 0; i < nTransit && len(in.tier1) > 0; i++ {
		idx := hash3(tk, uint64(i), 0) % uint64(len(in.tier1))
		a := in.tier1[idx]
		if h, ok := in.HostAt(a); ok {
			path = append(path, Hop{Addr: a, ASN: h.ASN})
		}
	}

	if nwi < 0 {
		return path
	}
	nw := &in.nets[nwi]
	// Destination network core routers: 1-3 from the router subnet.
	if sub := nw.routerSub; !sub.IsZero() {
		n := 1 + int(hash2(nw.key, dk%8)%3)
		for i := 0; i < n; i++ {
			a := ip6.AddrFromUint64(sub.Addr().Hi(), 1+hash3(nw.key, dk%4, uint64(i))%6)
			if h, ok := in.HostAt(a); ok {
				// Anonymous-router probability.
				if !chance(hash3(in.key^0xa404, hashAddr(in.key, a), uint64(day/7)), 0.15) {
					path = append(path, Hop{Addr: a, ASN: h.ASN})
				}
			}
		}
	}
	// Last hop before subscriber targets: the line's CPE. The pool hangs
	// off the covering announcement, so resolve with the shortest match.
	if ni, ok := ip6.LookupInterval(in.tabs.pools, dst); ok && in.nets[ni].isp >= 0 {
		poolNw := &in.nets[ni]
		isp := &in.isps[poolNw.isp]
		if line, ok := isp.lineContaining(dst, day); ok {
			cpe := isp.cpeAddr(line, day)
			if cpe != dst {
				path = append(path, Hop{Addr: cpe, ASN: poolNw.asn})
			}
		}
	}
	return path
}
