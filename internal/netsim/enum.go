package netsim

import (
	"expanse/internal/bgp"
	"expanse/internal/ip6"
)

// Enumeration APIs for the hitlist sources: the collectors in
// internal/sources draw their raw material from these.

// LineHost identifies a subscriber line that hosts a dynamic-DNS domain
// (a NAS or self-hosted server behind the CPE). Its address changes when
// the line renumbers, so forward-DNS sources re-resolve it every epoch.
// ISP is the dense ID of the owning pool in the world's ISP column; the
// unexported pointer into that sealed column serves the Addr/Rotates
// methods without a world handle.
type LineHost struct {
	ASN  bgp.ASN
	Line uint64
	ISP  int32
	isp  *lineISP
}

// LineHosts enumerates every domain-hosting subscriber line. The output
// is pre-sized from the per-pool domain-line counts fixed at
// construction, so enumeration does one exact allocation.
func (in *Internet) LineHosts() []LineHost {
	total := 0
	for i := range in.isps {
		total += in.isps[i].domainLines
	}
	out := make([]LineHost, 0, total)
	for ni := range in.nets {
		nw := &in.nets[ni]
		if nw.isp < 0 {
			continue
		}
		isp := &in.isps[nw.isp]
		for i := uint64(0); i < uint64(isp.lines); i++ {
			if isp.hostsDomain(i) {
				out = append(out, LineHost{ASN: nw.asn, Line: i, ISP: nw.isp, isp: isp})
			}
		}
	}
	return out
}

// Addr returns the line-hosted domain's address on the given day: the CPE
// itself for dyndns-on-router lines, or the NAS behind the CPE (whose
// traceroutes then reveal the CPE as an intermediate hop).
func (lh LineHost) Addr(day int) ip6.Addr {
	if lh.isp.nasLine(lh.Line) {
		return lh.isp.nasAddr(lh.Line, day)
	}
	return lh.isp.cpeAddr(lh.Line, day)
}

// Rotates reports whether the line renumbers (period > 0).
func (lh LineHost) Rotates() bool { return lh.isp.rotate > 0 }

// ClientSnapshot is one end-user device observation for the crowdsourcing
// study (§9): the device's address on a given day plus line metadata.
type ClientSnapshot struct {
	Addr    ip6.Addr
	ASN     bgp.ASN
	Country string
}

// ClientSnapshots samples up to max client devices active on the given
// day, deterministically. The crowdsourcing platforms of §9 recruit from
// this population.
func (in *Internet) ClientSnapshots(day int, max int) []ClientSnapshot {
	var out []ClientSnapshot
	for ni := range in.nets {
		nw := &in.nets[ni]
		if nw.isp < 0 {
			continue
		}
		isp := &in.isps[nw.isp]
		cc := in.Table.AS(nw.asn).Country
		for i := uint64(0); i < uint64(isp.lines); i++ {
			if len(out) >= max {
				return out
			}
			// Only a subsample of client devices "participates".
			if !chance(hash3(in.key^0xc4a3d, isp.key, i), 0.25) {
				continue
			}
			if a, ok := isp.clientAddr(i, day); ok {
				out = append(out, ClientSnapshot{Addr: a, ASN: nw.asn, Country: cc})
			}
		}
	}
	return out
}

// Networks returns announced-prefix metadata: prefix, origin and scheme.
// Exposed for the per-experiment reports; detection code never uses it.
type NetworkInfo struct {
	Prefix ip6.Prefix
	ASN    bgp.ASN
	Kind   bgp.Kind
	Scheme Scheme
	IsISP  bool
}

// Networks lists all announced networks with their ground-truth schemes.
func (in *Internet) Networks() []NetworkInfo {
	out := make([]NetworkInfo, 0, len(in.nets))
	for i := range in.nets {
		nw := &in.nets[i]
		out = append(out, NetworkInfo{
			Prefix: nw.prefix, ASN: nw.asn, Kind: nw.kind,
			Scheme: nw.scheme, IsISP: nw.isp >= 0,
		})
	}
	return out
}

// InSubscriberSpace reports whether addr falls inside an ISP line pool —
// the space where traceroutes keep discovering fresh CPE hops.
func (in *Internet) InSubscriberSpace(addr ip6.Addr) bool { return in.poolOf(addr) >= 0 }

// nasAddr is the line's self-hosted server: subnet 3 of the /56, with a
// low-entropy IID (people configure ::3:1 style addresses by hand).
func (l *lineISP) nasAddr(line uint64, day int) ip6.Addr {
	p56 := l.linePrefix(line, day)
	sub := p56.Subprefix(64, 3)
	return ip6.AddrFromUint64(sub.Addr().Hi(), 1+hash2(l.key^0x4a5, line)%14)
}
