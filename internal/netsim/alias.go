package netsim

import (
	"runtime"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/wire"
)

// StaleRecord is an address that DNS data still references but that no
// longer responds — the dominant reason only a fraction of hitlist
// addresses answer probes (§6).
type StaleRecord struct {
	Addr   ip6.Addr
	ASN    bgp.ASN
	Domain uint32
}

// AliasRecord is a "customer" DNS record pointing into an aliased region
// (CDN per-customer addresses, the IP_FREEBIND pattern of §5). These are
// how aliased prefixes flood hitlists with responsive but worthless
// addresses. Region is the ID of the owning region in AliasedRegions()
// order — an index into the flat region column, not a pointer, so record
// storage stays compact and relocatable.
type AliasRecord struct {
	Addr   ip6.Addr
	ASN    bgp.ASN
	Domain uint32
	Region int32
}

// addRegion appends an alias region to the flat region column, returning
// its dense ID.
func (in *Internet) addRegion(r AliasRegion) int32 {
	id := int32(len(in.regions))
	in.regions = append(in.regions, r)
	return id
}

// webMask is the protocol set aliased web front-ends answer.
func webMask(quic bool) wire.RespMask {
	var m wire.RespMask
	m.Set(wire.ICMPv6)
	m.Set(wire.TCP80)
	m.Set(wire.TCP443)
	if quic {
		m.Set(wire.UDP443)
	}
	return m
}

// planAliases builds the ground-truth aliased prefixes:
//
//   - most of Amazon's 189 /48s and Incapsula's 64 /48s (the "hook" of
//     Figure 5),
//   - a handful of fully aliased /32s, including one whole-/32 web server
//     (footnote 1 of the paper),
//   - many aliased /64s inside hoster/cloud networks (IP_FREEBIND on
//     individual machines; 20.7k in the paper),
//   - the §5.1 anomaly cases: a SYN-proxy /80, an aliased region with a
//     non-aliased 0x0-branch hole, and rate-limited neighbouring /120s.
func (in *Internet) planAliases(nextDomain func() uint32) {
	recordsPer := func(p ip6.Prefix, base float64) int {
		n := int(base * in.cfg.Scale * (0.5 + unit(hash2(in.key^0xa11a5, p.Addr().Hi()))))
		if n < 1 {
			n = 1
		}
		return n
	}
	// addRecords queues n customer DNS records pointing into a region;
	// they are drawn once every region is placed (see the end).
	// CDN-style /48 regions hand out pseudo-random per-customer addresses
	// (Amazon's pattern); IP_FREEBIND machines binding a single /64 give
	// customers sequential addresses, so those records are counter-style —
	// which is also what keeps the per-/32 entropy fingerprints of hoster
	// space crisp (Figure 2).
	type recordBatch struct {
		region int32
		n      int
		addrs  []ip6.Addr
	}
	var batches []recordBatch
	addRecords := func(ri int32, n int) { batches = append(batches, recordBatch{region: ri, n: n}) }

	quirkFor := func(key uint64) AliasQuirk {
		var q AliasQuirk
		h := hash64.Mix(key ^ 0x9e12c5)
		// Rates tuned to Table 5: optionstext ~0.5%, WScale ~0.5%,
		// MSS ~5%, WSize ~5%, iTTL ≈ 0 (handled by explicit flip regions).
		if chance(h, 0.005) {
			q |= QuirkProxyMix
		}
		if chance(hash64.Mix(h^1), 0.052) {
			q |= QuirkWSizeVary
		}
		if chance(hash64.Mix(h^2), 0.050) {
			q |= QuirkMSSVary
		}
		return q
	}

	// 1. Amazon: ~90% of its /48s aliased.
	amazon := bgp.FindASN("Amazon")
	incap := bgp.FindASN("Incapsula")
	for _, asn := range []bgp.ASN{amazon, incap} {
		for i, p := range in.Table.PrefixesOf(asn) {
			if p.Bits() != 48 {
				continue
			}
			if !chance(hash3(in.key^0xa3a2, uint64(asn), uint64(i)), 0.90) {
				continue
			}
			key := hash3(in.key^0xa11, uint64(asn), p.Addr().Hi())
			r := AliasRegion{
				Prefix:  p,
				ASN:     asn,
				Machine: key,
				Serves:  webMask(chance(hash64.Mix(key), 0.4)),
				Quirks:  quirkFor(key),
				Loss:    0.004 + unit(hash64.Mix(key^3))*0.01,
			}
			if chance(hash64.Mix(key^4), 0.02) {
				r.Loss = 0.1 + unit(hash64.Mix(key^5))*0.15
			}
			addRecords(in.addRegion(r), recordsPer(p, 420))
		}
	}

	// 2. Aliased /32 group + the whole-/32 single web server.
	groupDone, wholeDone := 0, false
	for i := range in.nets {
		nw := &in.nets[i]
		if nw.kind != bgp.KindCloud || nw.prefix.Bits() != 32 {
			continue
		}
		if !wholeDone {
			key := hash2(in.key^0x3201, nw.key)
			ri := in.addRegion(AliasRegion{
				Prefix: nw.prefix, ASN: nw.asn, Machine: key,
				Serves: webMask(false), Quirks: 0, Loss: 0.006,
			})
			addRecords(ri, recordsPer(nw.prefix, 60))
			wholeDone = true
			continue
		}
		if groupDone < 8 && chance(hash2(in.key^0x3202, nw.key), 0.1) {
			key := hash2(in.key^0x3203, nw.key)
			ri := in.addRegion(AliasRegion{
				Prefix: nw.prefix, ASN: nw.asn, Machine: key,
				Serves: webMask(true), Quirks: quirkFor(key), Loss: 0.008,
			})
			addRecords(ri, recordsPer(nw.prefix, 40))
			groupDone++
		}
	}

	// 3. Aliased /64s in hosters/clouds (single machines binding a /64).
	for ni := range in.nets {
		nw := &in.nets[ni]
		if nw.kind != bgp.KindHoster && nw.kind != bgp.KindCloud && nw.kind != bgp.KindInternetService {
			continue
		}
		if nw.prefix.Bits() > 40 {
			continue
		}
		if !chance(hash64.Mix(nw.key^0x64a1), 0.42) {
			continue
		}
		n := 1 + int(hash2(nw.key, 0x64)%4)
		for i := 0; i < n; i++ {
			p64 := nw.prefix.Subprefix(64, 0xf1ee+uint64(i))
			key := hash3(in.key^0x64a2, nw.key, uint64(i))
			r := AliasRegion{
				Prefix: p64, ASN: nw.asn, Machine: key,
				Serves: webMask(chance(hash64.Mix(key), 0.3)),
				Quirks: quirkFor(key),
				Loss:   0.004 + unit(hash64.Mix(key^6))*0.012,
			}
			if chance(hash64.Mix(key^7), 0.012) {
				r.Quirks |= QuirkTTLFlip // the 2 iTTL-flipping /48 parents
			}
			if chance(hash64.Mix(key^8), 0.03) {
				r.Loss = 0.1 + unit(hash64.Mix(key^9))*0.12
			}
			addRecords(in.addRegion(r), recordsPer(p64, 16))
		}
	}

	// 4. §5.1 anomaly cases, placed in the first suitable hoster.
	anomalyNet := int32(-1)
	for i := range in.nets {
		if in.nets[i].kind == bgp.KindHoster && in.nets[i].prefix.Bits() == 32 {
			anomalyNet = int32(i)
			break
		}
	}
	if anomalyNet >= 0 {
		nw := &in.nets[anomalyNet]
		// 4a. SYN proxy /80: parent /72 aliased, /80 child behind a SYN
		// proxy answering 3-5 of 16 branches, varying per day.
		p72 := nw.prefix.Subprefix(72, 0xdead01)
		p80 := p72.Subprefix(80, 3)
		parent := in.addRegion(AliasRegion{
			Prefix: p72, ASN: nw.asn, Machine: hash2(in.key, 0x5a01),
			Serves: webMask(false), Hole: p80, Loss: 0.005,
		})
		in.addRegion(AliasRegion{
			Prefix: p80, ASN: nw.asn, Machine: hash2(in.key, 0x5a02),
			Quirks: QuirkSYNProxy, Loss: 0,
		})
		addRecords(parent, recordsPer(p72, 12))

		// 4b. DE-CIX case: aliased /112 whose 0x0-branch /120 inside one
		// /116 is answered by different infrastructure (a hole).
		p112 := nw.prefix.Subprefix(112, 0xdecc1)
		p116 := p112.Subprefix(116, 0xb)
		hole := p116.Subprefix(120, 0x0)
		in.addRegion(AliasRegion{
			Prefix: p112, ASN: nw.asn, Machine: hash2(in.key, 0x5a03),
			Serves: webMask(false), Hole: hole, Loss: 0.004,
		})

		// 4c. Six neighbouring rate-limited /120s: an aliased /116 whose
		// low /120s are ICMP-rate-limited.
		p116b := nw.prefix.Subprefix(116, 0xacdc2)
		in.addRegion(AliasRegion{
			Prefix: p116b, ASN: nw.asn, Machine: hash2(in.key, 0x5a04),
			Serves: webMask(false), Quirks: QuirkRateLimit, Loss: 0.02,
		})

		// 4d. Footnote-style /96 inside the same hoster for fan-out tests.
		p96 := nw.prefix.Subprefix(96, 0xfee1)
		r96 := in.addRegion(AliasRegion{
			Prefix: p96, ASN: nw.asn, Machine: hash2(in.key, 0x5a05),
			Serves: webMask(true), Loss: 0.006,
		})
		addRecords(r96, recordsPer(p96, 10))
	}

	// A region's records are a pure function of the region, so the
	// batches draw concurrently; the domains then number them in order.
	par.Queue(len(batches), runtime.GOMAXPROCS(0), func(_, bi, _ int) {
		b := &batches[bi]
		r := &in.regions[b.region]
		rng := in.rngFor(r.Machine ^ 0x4ec04d5)
		counterStyle := r.Prefix.Bits() >= 64
		b.addrs = make([]ip6.Addr, 0, b.n)
		for i := 0; i < b.n; i++ {
			var addr ip6.Addr
			if counterStyle {
				addr = r.Prefix.NthAddr(uint64(i) + 1)
			} else {
				addr = r.Prefix.RandomAddr(rng)
			}
			if !r.Hole.IsZero() && r.Hole.Contains(addr) {
				continue
			}
			b.addrs = append(b.addrs, addr)
		}
	})
	n := 0
	for _, b := range batches {
		n += len(b.addrs)
	}
	in.aliasRecords = make([]AliasRecord, 0, n)
	for _, b := range batches {
		asn := in.regions[b.region].ASN
		for _, addr := range b.addrs {
			in.aliasRecords = append(in.aliasRecords, AliasRecord{
				Addr: addr, ASN: asn, Domain: nextDomain(), Region: b.region,
			})
		}
	}
}

// planRDNS creates the reverse-DNS population of §8: a balanced,
// hosting-heavy set largely disjoint from the forward-DNS sources. A
// slice of existing hosts gets rDNS entries, and hosters carry additional
// rDNS-only hosts (plus stale rDNS records).
func (in *Internet) planRDNS() {
	// Existing hosts: a PTR-share sweep over the builder's hosts in
	// insertion order, before any rDNS-only host joins them. Each draw is
	// a pure function of the host's address, so chunks of the hosts draw
	// concurrently and their picks join in chunk order.
	hosts, workers := in.b.arr, runtime.GOMAXPROCS(0)
	picks := make([][]ip6.Addr, max(workers, 1))
	par.Ranges(len(hosts), workers, 4096, 1, func(c, lo, hi int) {
		var out []ip6.Addr
		for i := lo; i < hi; i++ {
			h := &hosts[i]
			hk := hashAddr(in.key^0x4d45, h.Addr)
			// Only a small slice of forward-DNS-visible machines also
			// have PTRs; the bulk of the rDNS tree is infrastructure the
			// forward sources never see (that is what makes rDNS "mostly
			// new", §8).
			switch h.Class {
			case ClassWebServer, ClassDNSServer:
				if chance(hk, 0.07) {
					out = append(out, h.Addr)
				}
			case ClassRouter:
				if chance(hk, 0.10) {
					out = append(out, h.Addr)
				}
			}
		}
		picks[c] = out
	})
	n := 0
	for _, p := range picks {
		n += len(p)
	}
	for ni := range in.nets {
		n += 11 * in.rdnsOnlyHosts(&in.nets[ni]) // each host plus ten stale PTRs
	}
	in.rdns = make([]ip6.Addr, 0, n)
	for _, p := range picks {
		in.rdns = append(in.rdns, p...)
	}
	// rDNS-only hosts on hosters (provisioned-but-unlisted machines) —
	// these make rDNS "a valuable addition" (11.1M of 11.7M new in §8).
	for ni := range in.nets {
		nw := &in.nets[ni]
		n := in.rdnsOnlyHosts(nw)
		if n == 0 {
			continue
		}
		sub := nw.prefix.Subprefix(64, 0xd)
		for i := 0; i < n; i++ {
			addr := ip6.AddrFromUint64(sub.Addr().Hi(), 0x100+uint64(i))
			hk := hashAddr(nw.key, addr)
			var serves wire.RespMask
			serves.Set(wire.ICMPv6)
			if chance(hash64.Mix(hk^1), 0.35) {
				serves.Set(wire.TCP80)
			}
			if chance(hash64.Mix(hk^2), 0.2) {
				serves.Set(wire.TCP443)
			}
			in.b.add(Host{
				Addr: addr, ASN: nw.asn, Class: ClassWebServer,
				Serves: serves, Machine: hash2(nw.key^0x4d2, uint64(i)),
				DeathDay: deathDay(hash64.Mix(hk^3), 0.002, 3*in.Horizon()),
			})
			in.rdns = append(in.rdns, addr)
		}
		// Stale rDNS entries (PTR records for long-gone machines).
		nStale := n * 10
		for i := 0; i < nStale; i++ {
			addr := ip6.AddrFromUint64(sub.Addr().Hi(), 0x10000+uint64(i))
			in.rdns = append(in.rdns, addr)
		}
	}
}

// rdnsOnlyHosts returns how many rDNS-only hosts planRDNS adds to nw: some
// on half the covering announcements of hosters and Internet services.
func (in *Internet) rdnsOnlyHosts(nw *network) int {
	if nw.kind != bgp.KindHoster && nw.kind != bgp.KindInternetService {
		return 0
	}
	if nw.prefix.Bits() > 36 || !chance(hash64.Mix(nw.key^0x4d0), 0.5) {
		return 0
	}
	return int(float64(16+hash2(nw.key, 0x4d1)%48) * in.cfg.Scale)
}

// StaleRecords returns the stale forward-DNS records.
func (in *Internet) StaleRecords() []StaleRecord { return in.stale }

// AliasRecords returns the DNS records pointing into aliased regions.
func (in *Internet) AliasRecords() []AliasRecord { return in.aliasRecords }

// RDNSAddrs returns all addresses that have reverse-DNS entries, in no
// promised order: the reverse zone (dnssim.NewRTree) and Digest read them
// as a set.
func (in *Internet) RDNSAddrs() []ip6.Addr { return in.rdns }
