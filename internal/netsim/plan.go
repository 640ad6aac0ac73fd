package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/wire"
)

// Scheme is the addressing-scheme archetype of a network. The six values
// correspond to the six entropy clusters of Figure 2a: the point of the
// paper's clustering experiment is to rediscover exactly this structure
// from probe data alone.
type Scheme uint8

// Addressing schemes.
const (
	// SchemeCounter: IIDs are small counters (::1, ::2, …) in very few
	// subnets — entropy ≈ 0 everywhere except the last nybbles.
	SchemeCounter Scheme = iota
	// SchemeStructured: subnets enumerate a plan and IIDs encode
	// service/rack/port — moderate entropy across several nybble groups.
	SchemeStructured
	// SchemeRandomIID: pseudo-random IIDs (privacy extensions, hashes) —
	// high entropy in nybbles 17-32.
	SchemeRandomIID
	// SchemeRandomFull: random subnet and IID (fully scattered plans).
	SchemeRandomFull
	// SchemeEUI64Single: SLAAC MAC-based IIDs, single dominant vendor —
	// ff:fe marker at nybbles 23-26, low entropy in the OUI nybbles.
	SchemeEUI64Single
	// SchemeEUI64Multi: SLAAC MAC-based IIDs from many vendors.
	SchemeEUI64Multi
	// NumSchemes is the number of archetypes.
	NumSchemes = 6
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeCounter:
		return "counter"
	case SchemeStructured:
		return "structured"
	case SchemeRandomIID:
		return "random-iid"
	case SchemeRandomFull:
		return "random-full"
	case SchemeEUI64Single:
		return "eui64-single"
	case SchemeEUI64Multi:
		return "eui64-multi"
	default:
		return "scheme?"
	}
}

// schemeWeights reproduces the cluster popularity of Figure 2a: counters
// dominate, structured second, then pseudo-random, then MAC-based.
var schemeWeights = []float64{0.46, 0.22, 0.15, 0.07, 0.07, 0.03}

// planBulk plans everything but the rDNS population into the builder:
// per-announcement metadata, alias regions, server farms, routers,
// subscriber pools, Atlas probes and Bitcoin nodes.
//
// Farms, their stale siblings and routers are planned in two phases. A
// network's share is a pure function of its key and the config, so
// planNetwork plans every network into its own buffer concurrently; one
// serial pass then walks the networks in announcement order, attaches
// the subscriber pools, numbers the domains from one counter — a farm's
// hosts, then its stale records; an ISP's secondary-announcement farm
// takes none — and registers the hosts, first insertion winning, into a
// builder sized from the buffers' exact totals.
func (in *Internet) planBulk() {
	anns := in.Table.Announcements()

	// Group announcements per AS so roles can be assigned per operator.
	byAS := map[bgp.ASN][]ip6.Prefix{}
	for _, a := range anns {
		byAS[a.Origin] = append(byAS[a.Origin], a.Prefix)
	}

	// Per-announcement network metadata: a flat, exactly-sized column.
	// The announcement count is final here, so net IDs (the values of the
	// seal-time interval tables) stay stable for the world's lifetime.
	in.nets = make([]network, 0, len(anns))
	for _, a := range anns {
		info := in.Table.AS(a.Origin)
		key := hash3(in.key, uint64(a.Origin), a.Prefix.Addr().Hi())
		nw := network{
			prefix:    a.Prefix,
			routerSub: routerSubnet(a.Prefix, byAS[a.Origin]),
			asn:       a.Origin,
			kind:      info.Kind,
			key:       key,
			pathLen:   uint8(3 + key%9),
			jitter:    chance(hash64.Mix(key^1), 0.28),
			loss:      0.004 + unit(hash64.Mix(key^2))*0.016,
			isp:       -1,
			// One operator, one addressing plan: all announcements of an
			// AS share a scheme (the homogeneity Fig. 3b observes).
			scheme: pickScheme(hash2(in.key, uint64(a.Origin))),
		}
		if chance(hash64.Mix(key^3), 0.03) {
			nw.loss = 0.08 + unit(hash64.Mix(key^4))*0.2 // high-loss networks (§5.2)
		}
		in.nets = append(in.nets, nw)
	}

	plans := make([]netPlan, len(in.nets))
	par.Queue(len(in.nets), runtime.GOMAXPROCS(0), func(_, i, _ int) {
		nw := &in.nets[i]
		plans[i] = in.planNetwork(nw, byAS[nw.asn])
	})
	hosts := int(300*in.cfg.Scale) + tier1Pools*tier1PerPool // planBitnodes' target, planTier1's most
	stale := 0
	for i := range plans {
		hosts += len(plans[i].hosts) + plans[i].later
		stale += len(plans[i].stale)
	}
	in.b = newWorldBuilder(hosts)
	in.stale = make([]StaleRecord, 0, stale)

	domainID := uint32(1)
	nextDomain := func() uint32 { d := domainID; domainID++; return d }
	for i := range in.nets {
		nw, p := &in.nets[i], &plans[i]
		if p.pool {
			in.planISP(nw)
		}
		domains := nw.kind != bgp.KindISP
		for k := range p.hosts {
			if domains && k < p.farm {
				p.hosts[k].Domain = nextDomain()
			}
			in.b.add(p.hosts[k])
		}
		for _, r := range p.stale {
			if domains {
				r.Domain = nextDomain()
			}
			in.stale = append(in.stale, r)
		}
		*p = netPlan{} // the buffers are garbage from here
	}

	in.planAliases(nextDomain)
	in.planAtlas()
	in.planBitnodes()
	in.planTier1()
}

// netPlan is one network's share of planBulk's concurrent phase: its
// farm's hosts (hosts[:farm]) followed by its routers, and the farm's
// stale siblings, domain IDs unset. pool marks the announcement an ISP's
// subscriber pool hangs off, and later counts the hosts planAtlas and
// planRDNS add to the network, for sizing the builder.
type netPlan struct {
	hosts []Host
	farm  int
	stale []StaleRecord
	pool  bool
	later int
}

// planNetwork plans network nw, whose operator announces sameAS in table
// order: a farm for every kind but ISP, whose covering announcement
// carries the subscriber pool instead (planISP, in planBulk's serial
// pass) and whose secondary announcements host a small farm
// occasionally; then the routers.
func (in *Internet) planNetwork(nw *network, sameAS []ip6.Prefix) netPlan {
	p := netPlan{later: atlasProbes(nw) + in.rdnsOnlyHosts(nw)}
	farm := true
	if nw.kind == bgp.KindISP {
		p.pool = nw.prefix == sameAS[0]
		farm = !p.pool && chance(hash64.Mix(nw.key^0x15b), 0.2)
	}
	routers := routerCount(nw)
	if farm {
		in.planFarm(nw, routers, &p)
	}
	in.planRouters(nw, routers, &p)
	return p
}

// The named operators planFarm and planISP size their populations by,
// resolved once instead of by a scan of bgp.Majors per network.
var (
	asAmazon     = bgp.FindASN("Amazon")
	asAkamai     = bgp.FindASN("Akamai")
	asCloudflare = bgp.FindASN("Cloudflare")
	asGoogle     = bgp.FindASN("Google")
	asHDNet      = bgp.FindASN("HDNet")
	// largePools and midPools are the ISPs with 2,800 and 1,200 lines
	// per unit of scale.
	largePools = findASNs("DTAG", "Comcast", "ProXad", "AT&T", "Reliance")
	midPools   = findASNs("Swisscom", "Antel", "Versatel", "BIHNET",
		"Sky Broadband", "Google Fiber", "Xs4all", "ZTE Home")
)

func findASNs(names ...string) []bgp.ASN {
	out := make([]bgp.ASN, len(names))
	for i, name := range names {
		out[i] = bgp.FindASN(name)
	}
	return out
}

// routerSubnet returns the /64 holding the core routers traceroutes show
// towards p: routers live on announcements of length <= 36 (planRouters),
// so a longer announcement borrows the subnet of its operator's first
// announcement <= /36 that overlaps it. sameAS lists the operator's
// announcements in table order; the zero Prefix means no such cover.
func routerSubnet(p ip6.Prefix, sameAS []ip6.Prefix) ip6.Prefix {
	if p.Bits() <= 36 {
		return p.Subprefix(64, 0xffff)
	}
	for _, cand := range sameAS {
		if cand.Bits() <= 36 && cand.Overlaps(p) {
			return cand.Subprefix(64, 0xffff)
		}
	}
	return ip6.Prefix{}
}

func pickScheme(key uint64) Scheme {
	r := unit(hash64.Mix(key ^ 0x5c3e3e))
	acc := 0.0
	for i, w := range schemeWeights {
		acc += w
		if r < acc {
			return Scheme(i)
		}
	}
	return SchemeCounter
}

// lognormalInt draws a deterministic lognormal-ish integer with the given
// median and spread.
func lognormalInt(rng *rand.Rand, median float64, sigma float64) int {
	v := median * math.Exp(rng.NormFloat64()*sigma)
	if v < 1 {
		v = 1
	}
	return int(v)
}

// deathDay draws the day a host stops responding: geometric with daily
// rate p, or -1 if beyond the simulation horizon.
func deathDay(h uint64, p float64, horizon int) int16 {
	if p <= 0 {
		return -1
	}
	u := unit(h)
	d := int(math.Log(1-u)/math.Log(1-p)) + 1
	if d > horizon {
		return -1
	}
	return int16(d)
}

// farmSubnet picks subnet s of a farm given its scheme.
func farmSubnet(nw *network, s uint64) ip6.Prefix {
	switch nw.scheme {
	case SchemeRandomFull:
		return nw.prefix.Subprefix(64, hash2(nw.key^0x50b4e7, s))
	case SchemeStructured:
		// Subnet plan: an enumerated row of /64s starting at a round base.
		return nw.prefix.Subprefix(64, 0x100+s)
	default:
		return nw.prefix.Subprefix(64, s)
	}
}

// hostIID derives host i's IID under the network's scheme.
func hostIID(nw *network, subnet ip6.Prefix, i uint64) ip6.Addr {
	base := subnet.Addr()
	switch nw.scheme {
	case SchemeCounter:
		return ip6.AddrFromUint64(base.Hi(), i+1)
	case SchemeStructured:
		// service nybble + rack byte + counter: e.g. ::a:2:0:N.
		svc := hash2(nw.key^0x57c, i%4)%6 + 1
		return ip6.AddrFromUint64(base.Hi(), svc<<40|(i/16)<<16|i%16+1)
	case SchemeRandomIID, SchemeRandomFull:
		iid := hash2(nw.key^0x4a4d, i)
		if iid>>24&0xffff == 0xfffe {
			iid ^= 0x1111 << 24
		}
		return ip6.AddrFromUint64(base.Hi(), iid)
	case SchemeEUI64Single:
		oui := [3]byte{0x00, 0x0c, 0x29} // single vendor (VMware-style farm)
		h := hash2(nw.key^0xe64, i)
		mac := [6]byte{oui[0], oui[1], oui[2], byte(h >> 16), byte(h >> 8), byte(h)}
		return ip6.FromMAC(base, mac)
	case SchemeEUI64Multi:
		h := hash2(nw.key^0xe65, i)
		mac := [6]byte{byte(h >> 40), byte(h >> 32), byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
		mac[0] &^= 0x01 // unicast
		return ip6.FromMAC(base, mac)
	}
	return ip6.AddrFromUint64(base.Hi(), i+1)
}

// planFarm plans a hosting/CDN/service/academic network's servers plus
// stale sibling addresses (old DNS records that no longer respond) into
// p, its host buffer sized for the farm and the network's routers more.
func (in *Internet) planFarm(nw *network, routers int, p *netPlan) {
	rng := seededRand(nw.key)
	scale := in.cfg.Scale

	var median float64
	switch {
	case nw.asn == asAmazon:
		median = 1200
	case nw.asn == asAkamai || nw.asn == asCloudflare:
		median = 700
	case nw.asn == asGoogle || nw.asn == asHDNet:
		median = 400
	case nw.kind == bgp.KindHoster || nw.kind == bgp.KindCloud:
		median = 14
	case nw.kind == bgp.KindCDN:
		median = 40
	case nw.kind == bgp.KindInternetService:
		median = 18
	default: // academic, enterprise
		median = 8
	}
	// Only the first announcement of small operators hosts a farm; big
	// ones host on every /32 announcement but not on each tiny /48.
	if nw.prefix.Bits() > 40 && !chance(hash64.Mix(nw.key^7), 0.25) {
		return
	}
	n := int(float64(lognormalInt(rng, median, 0.9)) * scale)
	if n <= 0 {
		return
	}

	quicFlaky := nw.asn == asAkamai || nw.asn == asHDNet
	// A quarter of sizable pools are one machine with many bound
	// addresses (the §5.4 validation deep-dive population).
	cloned := n >= 16 && chance(hash64.Mix(nw.key^8), 0.25)
	clonedKey := hash2(nw.key, 0xc104ed)

	perSubnet := 200
	if nw.scheme == SchemeRandomFull {
		perSubnet = 30
	}
	// Stale siblings: the counter continued past the live range in old
	// DNS records; they resolve but do not respond.
	nStale := int(float64(n) * (1.0 + unit(hash64.Mix(nw.key^9))*1.5))
	p.hosts = make([]Host, 0, n+routers)
	p.farm = n
	p.stale = make([]StaleRecord, nStale)
	for i := 0; i < n; i++ {
		subnet := farmSubnet(nw, uint64(i/perSubnet))
		addr := hostIID(nw, subnet, uint64(i%perSubnet))
		hk := hashAddr(nw.key, addr)

		serves := wire.RespMask(0)
		serves.Set(wire.ICMPv6)
		isDNS := chance(hash64.Mix(hk^1), dnsShare(nw.kind))
		if isDNS {
			serves.Set(wire.UDP53)
			if chance(hash64.Mix(hk^2), 0.14) {
				serves.Set(wire.TCP80)
			}
		} else {
			serves.Set(wire.TCP80)
			if chance(hash64.Mix(hk^3), 0.62) {
				serves.Set(wire.TCP443)
				if chance(hash64.Mix(hk^4), 0.30) || quicFlaky {
					serves.Set(wire.UDP443)
				}
			}
		}
		// A small share of hosts drop ICMP at the border.
		if chance(hash64.Mix(hk^5), 0.05) {
			m := serves
			m &^= 1 << wire.ICMPv6
			if m != 0 {
				serves = m
			}
		}
		mk := hash2(nw.key, uint64(i))
		if cloned {
			mk = clonedKey
		}
		class := ClassWebServer
		if isDNS {
			class = ClassDNSServer
		}
		p.hosts = append(p.hosts, Host{
			Addr:      addr,
			ASN:       nw.asn,
			Class:     class,
			Serves:    serves,
			Machine:   mk,
			DeathDay:  deathDay(hash64.Mix(hk^6), 0.0012, 3*in.Horizon()),
			QUICFlaky: quicFlaky,
		})
	}
	for i := range p.stale {
		subnet := farmSubnet(nw, uint64((n+i)/perSubnet))
		addr := hostIID(nw, subnet, uint64((n+i)%perSubnet))
		p.stale[i] = StaleRecord{Addr: addr, ASN: nw.asn}
	}
}

func dnsShare(k bgp.Kind) float64 {
	switch k {
	case bgp.KindInternetService:
		return 0.30
	case bgp.KindHoster:
		return 0.18
	case bgp.KindCloud:
		return 0.10
	default:
		return 0.08
	}
}

// routerCount returns how many core/border routers planRouters places in
// nw: some on a covering announcement, none on a /48 and the like.
func routerCount(nw *network) int {
	if nw.prefix.Bits() > 36 {
		return 0
	}
	return 2 + int(hash2(nw.key, 0x4007e4)%6)
}

// planRouters appends nw's n = routerCount(nw) core/border routers, in
// the operator's router subnet, to p's hosts.
func (in *Internet) planRouters(nw *network, n int, p *netPlan) {
	if n == 0 {
		return
	}
	if p.hosts == nil {
		p.hosts = make([]Host, 0, n)
	}
	sub := nw.routerSub
	for i := 0; i < n; i++ {
		addr := ip6.AddrFromUint64(sub.Addr().Hi(), uint64(i)+1)
		var serves wire.RespMask
		serves.Set(wire.ICMPv6)
		p.hosts = append(p.hosts, Host{
			Addr:     addr,
			ASN:      nw.asn,
			Class:    ClassRouter,
			Serves:   serves,
			Machine:  hash2(nw.key^0x4007, uint64(i)),
			DeathDay: -1,
		})
	}
}

// planISP attaches a subscriber-line pool to nw, the operator's first
// (widest) announcement.
func (in *Internet) planISP(nw *network) {
	rng := seededRand(nw.key ^ 0x115b)
	scale := in.cfg.Scale
	var lines int
	switch {
	case slices.Contains(largePools, nw.asn):
		lines = int(2800 * scale)
	case slices.Contains(midPools, nw.asn):
		lines = int(1200 * scale)
	default:
		lines = int(float64(lognormalInt(rng, 34, 1.0)) * scale)
	}
	if lines < 4 {
		lines = 4
	}
	bits := 2
	for 1<<bits < lines*4 {
		bits++
	}
	span := 56 - nw.prefix.Bits()
	if bits > span {
		bits = span
	}
	rotate := 0
	// Half of the large European ISPs renumber aggressively (DE/FR DSL).
	cc := in.Table.AS(nw.asn).Country
	if (cc == "DE" || cc == "FR" || cc == "CH" || cc == "AT" || cc == "PL") && chance(hash64.Mix(nw.key^0x407a), 0.75) {
		rotate = 1 + int(hash2(nw.key, 0x707)%3)
	} else if chance(hash64.Mix(nw.key^0x407b), 0.15) {
		rotate = 2 + int(hash2(nw.key, 0x708)%5)
	}
	g := hash2(nw.key, 0x6) | 1
	isp := lineISP{
		key:         hash2(nw.key, 0x11e5),
		asn:         nw.asn,
		base:        nw.prefix,
		lines:       lines,
		bits:        bits,
		mulG:        g,
		invG:        invOdd(g),
		rotate:      rotate,
		hostShare:   0.12 + unit(hash64.Mix(nw.key^0xd0))*0.18,
		clientShare: 0.3 + unit(hash64.Mix(nw.key^0xc1))*0.3,
	}
	// Count the domain-hosting lines once so LineHosts can pre-size its
	// output exactly instead of growing from nil.
	for i := uint64(0); i < uint64(isp.lines); i++ {
		if isp.hostsDomain(i) {
			isp.domainLines++
		}
	}
	nw.isp = int32(len(in.isps))
	in.isps = append(in.isps, isp)
}

// planAtlas scatters RIPE-Atlas-style probes over most ASes — the
// balanced, router-and-probe-flavoured source of §3.
func (in *Internet) planAtlas() {
	for i := range in.nets {
		nw := &in.nets[i]
		probes := atlasProbes(nw)
		sub := nw.prefix.Subprefix(64, 0xa71a)
		for i := 0; i < probes; i++ {
			iid := hash2(nw.key^0xa71a50, uint64(i)) | 1
			if iid>>24&0xffff == 0xfffe {
				iid ^= 0x2222 << 24
			}
			addr := ip6.AddrFromUint64(sub.Addr().Hi(), iid)
			var serves wire.RespMask
			serves.Set(wire.ICMPv6)
			in.b.add(Host{
				Addr:     addr,
				ASN:      nw.asn,
				Class:    ClassAtlas,
				Serves:   serves,
				Machine:  hash2(nw.key^0xa71a51, uint64(i)),
				DeathDay: deathDay(hash2(nw.key^0xa71a52, uint64(i)), 0.0008, 3*in.Horizon()),
			})
		}
	}
}

// atlasProbes returns how many Atlas probes planAtlas places in nw: some
// on a covering announcement, none on a /48 and the like.
func atlasProbes(nw *network) int {
	if nw.prefix.Bits() > 36 || !chance(hash64.Mix(nw.key^0xa71a5), 0.55) {
		return 0
	}
	return 1 + int(hash2(nw.key, 0xa7)%3)
}

// planBitnodes places always-on Bitcoin peers on static subscriber lines
// and small hosters.
func (in *Internet) planBitnodes() {
	target := int(300 * in.cfg.Scale)
	placed := 0
	for ni := range in.nets {
		nw := &in.nets[ni]
		if placed >= target {
			return
		}
		if nw.isp < 0 {
			continue
		}
		isp := &in.isps[nw.isp]
		if isp.rotate != 0 {
			continue
		}
		k := 1 + int(hash2(nw.key, 0xb17)%3)
		for i := 0; i < k && placed < target; i++ {
			line := hash2(isp.key^0xb17c, uint64(i)) % uint64(isp.lines)
			p56 := isp.linePrefix(line, 0)
			sub := p56.Subprefix(64, 2)
			iid := hash2(isp.key^0xb17d, line)
			if iid>>24&0xffff == 0xfffe {
				iid ^= 0x3333 << 24
			}
			addr := ip6.AddrFromUint64(sub.Addr().Hi(), iid)
			var serves wire.RespMask
			serves.Set(wire.ICMPv6)
			if chance(hash64.Mix(iid), 0.5) {
				serves.Set(wire.TCP80) // some run web panels
			}
			in.b.add(Host{
				Addr:     addr,
				ASN:      nw.asn,
				Class:    ClassBitnode,
				Serves:   serves,
				Machine:  hash2(isp.key^0xb17e, line),
				DeathDay: deathDay(hash2(isp.key^0xb17f, line), 0.016, 3*in.Horizon()),
			})
			placed++
		}
	}
}

// planTier1 reuses the router subnets of the first tier1Pools subscriber
// pools as "transit": tier1PerPool routers each.
const tier1Pools, tier1PerPool = 8, 8

// planTier1 creates the shared transit routers traceroute paths traverse.
func (in *Internet) planTier1() {
	count := 0
	for i := range in.nets {
		nw := &in.nets[i]
		if nw.isp < 0 {
			continue
		}
		sub := nw.prefix.Subprefix(64, 0xffff)
		for i := 0; i < tier1PerPool; i++ {
			addr := ip6.AddrFromUint64(sub.Addr().Hi(), 0x100+uint64(i))
			var serves wire.RespMask
			serves.Set(wire.ICMPv6)
			in.b.add(Host{
				Addr: addr, ASN: nw.asn, Class: ClassRouter,
				Serves: serves, Machine: hash2(nw.key^0x7137, uint64(i)), DeathDay: -1,
			})
			in.tier1 = append(in.tier1, addr)
		}
		count++
		if count == tier1Pools {
			return
		}
	}
}
