// Package netsim implements the simulated IPv6 Internet that the hitlist
// pipeline measures. It is the substitute for the live Internet of the
// paper (see DESIGN.md): a deterministic world of autonomous systems,
// announced prefixes, addressing schemes, servers, routers, CPE devices,
// clients, and — crucially — aliased prefixes, answering probe packets
// with realistic responsiveness, fingerprints, churn, packet loss, and
// rate limiting.
//
// Determinism: the world is fully determined by Config.Seed. Any probe
// (address, protocol, day, time) always yields the same answer given the
// same prior state, which makes every experiment in the paper exactly
// reproducible.
//
// Concurrency: the world is immutable once built, and Probe is safe for
// unlimited concurrent use (see the contract on Internet.Probe). Answers
// depend only on probe arguments, so results are identical regardless of
// how many scanner workers interleave their probes. DESIGN.md documents
// the scan-engine concurrency model built on top of this contract.
package netsim

import (
	"math/rand"

	"expanse/internal/bgp"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/lazyrand"
	"expanse/internal/wire"
)

// Config parameterizes world generation.
type Config struct {
	// Seed determines everything.
	Seed int64
	// Registry configures the synthetic routing table.
	Registry bgp.RegistryConfig
	// Scale multiplies host populations. 1.0 builds a world whose hitlist
	// is ~1:100 of the paper's (≈400-600k addresses).
	Scale float64
	// EpochDays is the number of days between source-collection
	// snapshots (the paper collects daily over ~9 months; we default to
	// weekly snapshots over the simulated period).
	EpochDays int
	// Epochs is the number of collection snapshots for the runup.
	Epochs int
}

// DefaultConfig returns the standard 1:100-scale world.
func DefaultConfig() Config {
	return Config{
		Seed:      0x16C18,
		Registry:  bgp.DefaultRegistryConfig(),
		Scale:     1.0,
		EpochDays: 7,
		Epochs:    10,
	}
}

// HostClass categorizes simulated hosts; sources and reports use it to
// reason about populations (§3's "servers, routers, and a share of
// clients").
type HostClass uint8

// Host classes.
const (
	ClassWebServer HostClass = iota
	ClassDNSServer
	ClassRouter  // core/border routers
	ClassCPE     // customer premises equipment (home routers)
	ClassClient  // end-user devices
	ClassBitnode // Bitcoin peers (clients that appear in the Bitnodes API)
	ClassAtlas   // RIPE Atlas probes/anchors
)

// String returns a short class name.
func (c HostClass) String() string {
	switch c {
	case ClassWebServer:
		return "web"
	case ClassDNSServer:
		return "dns"
	case ClassRouter:
		return "router"
	case ClassCPE:
		return "cpe"
	case ClassClient:
		return "client"
	case ClassBitnode:
		return "bitnode"
	case ClassAtlas:
		return "atlas"
	default:
		return "host"
	}
}

// Host is one finite simulated host.
type Host struct {
	Addr    ip6.Addr
	ASN     bgp.ASN
	Class   HostClass
	Serves  wire.RespMask
	Machine uint64 // machine profile key; hosts in a cloned pool share it
	// DeathDay is the first day the host no longer responds (-1: beyond
	// horizon). Drives the longitudinal decay of Figure 8.
	DeathDay int16
	// QUICFlaky marks hosts whose UDP/443 responsiveness flaps per day
	// (the Akamai/HDNet behaviour of §6.3).
	QUICFlaky bool
	// Domain is a nonzero domain ID if a DNS name points at this host.
	Domain uint32
}

// AliasQuirk flags unusual behaviours of an aliased region that the
// fingerprinting study (§5.4) must encounter.
type AliasQuirk uint8

// Alias quirks.
const (
	// QuirkTTLFlip: individual probes get iTTL 64 or 255 at random (the
	// paper's 22 inconsistent-iTTL addresses in 2 /48s).
	QuirkTTLFlip AliasQuirk = 1 << iota
	// QuirkProxyMix: a TCP-level proxy fronts different backends per
	// destination address, so options layouts differ per address.
	QuirkProxyMix
	// QuirkWSizeVary: advertised window varies per probe (host state).
	QuirkWSizeVary
	// QuirkMSSVary: MSS differs per destination address.
	QuirkMSSVary
	// QuirkRateLimit: ICMP(+TCP) responses are rate-limited; some
	// fan-out branches fail per day (the six /120s of §5.1).
	QuirkRateLimit
	// QuirkSYNProxy: a SYN proxy answers all TCP after a threshold;
	// responds to only some branches, changing daily (the /80 of §5.1).
	QuirkSYNProxy
)

// AliasRegion is a ground-truth aliased prefix: every address inside it
// (except inside Hole) is bound to one machine.
type AliasRegion struct {
	Prefix  ip6.Prefix
	ASN     bgp.ASN
	Machine uint64
	Serves  wire.RespMask
	Quirks  AliasQuirk
	// Hole is an optional carve-out that is NOT aliased (zero Prefix if
	// none) — the DE-CIX 0x0-branch case of §5.1.
	Hole ip6.Prefix
	// Loss is the per-probe loss probability (high-loss networks are what
	// the sliding window of §5.2 exists for).
	Loss float64
	// prof is Machine's profile and mixProf that of the second backend a
	// QuirkProxyMix region fronts (see quirkedMachine), filled at seal.
	prof, mixProf profile
	// path is pathLen's value, filled at seal with the profiles: answering
	// hashes nothing that is constant for the region.
	path uint8
}

// lineISP describes a pool of subscriber lines inside one ISP
// announcement. CPE and client addresses of rotating lines are computed
// on demand (they are too numerous to materialize across days).
type lineISP struct {
	key    uint64
	asn    bgp.ASN
	base   ip6.Prefix // pool covering the line /56s
	lines  int
	bits   int // log2 of /56 slots in pool
	mulG   uint64
	invG   uint64
	rotate int // rotation period in days; 0 = static
	// hostShare is the fraction of lines that host a (dynamic-DNS) domain.
	hostShare float64
	// clientShare is the fraction of lines with an active client device.
	clientShare float64
	// domainLines counts lines with hostsDomain(line) true, fixed at
	// construction so LineHosts pre-sizes its output exactly.
	domainLines int
}

// network is per-announcement metadata used when answering probes. The
// topology is columnar: networks live in the flat Internet.nets slice and
// the interval tables carry dense int32 IDs into it, so resolving a probe
// touches cache-line-contiguous data instead of chasing per-network heap
// pointers.
type network struct {
	prefix ip6.Prefix
	// routerSub is the /64 traceroutes draw this network's core routers
	// from: its own for announcements of length <= 36 (where planRouters
	// puts them), else that of the operator's first announcement <= /36
	// overlapping it; zero if there is none.
	routerSub ip6.Prefix
	asn       bgp.ASN
	kind      bgp.Kind
	key       uint64
	pathLen   uint8
	// jitter, despite its name, turns the per-probe on-path hop jitter
	// OFF: a flagged network's hosts and lines flip their iTTL per
	// address instead (answerRaw's flipITTL); every unflagged network's
	// answers carry the jitter.
	jitter bool
	loss   float64
	isp    int32 // index into Internet.isps; -1 for non-subscriber nets
	scheme Scheme
}

// Internet is the simulated world. After New returns it is sealed: the
// host population lives in sorted SoA columns (hostCols), networks,
// alias regions and ISP pools in flat columns addressed by int32 IDs,
// the interval tables every address resolution reads (tabs) are compiled,
// and nothing is mutated again (cmd/expanselint's sealedwrite analyzer
// enforces the freeze outside this package).
type Internet struct {
	cfg   Config
	Table *bgp.Table
	// hc is the sealed columnar host plane (see hostcols.go).
	hc      hostCols
	regions []AliasRegion
	nets    []network
	isps    []lineISP
	// tabs are the compiled resolution tables over regions and nets (see
	// resolve.go), assigned once by seal.
	tabs tables
	// tier1 transit router addresses shared across traceroute paths.
	tier1        []ip6.Addr
	stale        []StaleRecord
	aliasRecords []AliasRecord
	rdns         []ip6.Addr
	key          uint64
	// b is the construction-time host builder; nil once sealed.
	b *worldBuilder
}

// New builds the world in one pass: planBulk and planRDNS register every
// host through the construction-time builder, and seal freezes the lot
// into sorted columns, derives the machine profiles and compiles the
// resolution tables. Generation cost is O(total hosts); the default
// scale builds in well under a second.
func New(cfg Config) *Internet {
	in := newUnsealed(cfg)
	in.planBulk()
	in.planRDNS()
	in.seal()
	return in
}

// newUnsealed applies the config defaults and returns an empty world,
// ready for planBulk, which sizes its builder.
func newUnsealed(cfg Config) *Internet {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.EpochDays <= 0 {
		cfg.EpochDays = 7
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	return &Internet{
		cfg:   cfg,
		Table: bgp.Generate(cfg.Registry),
		key:   hash64.Mix(uint64(cfg.Seed)),
	}
}

// seal gathers the builder's hosts into sorted columns, derives every
// host's and region's machine profile, compiles the resolution tables
// from the final region and network columns, and drops the builder.
func (in *Internet) seal() {
	in.hc = sealHosts(in.b)
	in.hc.fillProfiles()
	for i := range in.regions {
		r := &in.regions[i]
		r.prof, r.mixProf = newProfile(r.Machine), newProfile(r.mixMachine())
		r.path = r.pathLen(in)
	}
	in.tabs = compileTables(in.regions, in.nets, in.Table)
	in.b = nil
}

// Config returns the configuration the world was built with.
func (in *Internet) Config() Config { return in.cfg }

// Horizon returns the last simulated day (inclusive) covered by source
// collection.
func (in *Internet) Horizon() int { return in.cfg.Epochs * in.cfg.EpochDays }

// Hosts returns all finite hosts of the given classes (all if none given).
// The slice is freshly allocated at its exact length; order is
// deterministic.
func (in *Internet) Hosts(classes ...HostClass) []Host {
	want := ^uint64(0) // bit c set: class c is wanted
	if len(classes) > 0 {
		want = 0
		for _, c := range classes {
			want |= 1 << c
		}
	}
	n := 0
	for i := range in.hc.meta {
		if want&(1<<in.hc.classAt(int32(i))) != 0 {
			n++
		}
	}
	out := make([]Host, 0, n)
	for _, pos := range in.hc.byRank {
		if want&(1<<in.hc.classAt(pos)) != 0 {
			out = append(out, in.hc.hostAt(pos))
		}
	}
	return out
}

// NumHosts returns the number of finite hosts, the length of Hosts().
func (in *Internet) NumHosts() int { return in.hc.n() }

// HostDomain returns the domain ID (0 for none), ASN and address of
// Hosts()[r], the host of insertion rank r, without building the list.
func (in *Internet) HostDomain(r int) (uint32, bgp.ASN, ip6.Addr) {
	pos := in.hc.byRank[r]
	return in.hc.domain[pos], in.hc.asn[pos], in.hc.addr[pos]
}

// HostAt returns the finite host at addr, if any: one lookup through a
// fresh host-column cursor, as Probe locates its destination.
func (in *Internet) HostAt(addr ip6.Addr) (Host, bool) {
	c := hostRun{hc: &in.hc}
	if i, ok := c.lookup(addr); ok {
		return in.hc.hostAt(i), true
	}
	return Host{}, false
}

// AliasedRegions returns the ground-truth aliased regions (for validation
// and EXPERIMENTS.md accounting — the pipeline itself must *detect* them).
// The pointers index into the sealed region column and stay valid for the
// world's lifetime.
func (in *Internet) AliasedRegions() []*AliasRegion {
	out := make([]*AliasRegion, len(in.regions))
	for i := range in.regions {
		out[i] = &in.regions[i]
	}
	return out
}

// GroundTruthAliased reports whether addr falls in an aliased region
// (outside any hole). SYN-proxy regions are not aliased: the proxy only
// mimics responsiveness under attack thresholds (§5.1).
func (in *Internet) GroundTruthAliased(addr ip6.Addr) bool {
	ri, ok := ip6.LookupInterval(in.tabs.alias, addr)
	if !ok {
		return false
	}
	r := &in.regions[ri]
	if r.Quirks&QuirkSYNProxy != 0 {
		return false
	}
	if !r.Hole.IsZero() && r.Hole.Contains(addr) {
		return false
	}
	return true
}

// Probe answers a single probe packet: the per-probe form of ProbeLanes,
// for callers that send one probe at a time (the crowdsourcing study, the
// benchmarks and the scan engine's oracles).
//
// Concurrency contract: Probe is safe for unlimited concurrent use once
// New has returned. The world is immutable after construction — every
// lookup structure (host columns, interval tables) is read-only, machine
// profiles are sealed columns or derived on the caller's stack, and all
// per-probe variation derives from pure keyed hashes: Probe writes no
// shared state at all. A probe's answer depends solely on its arguments,
// never on probe ordering, so any interleaving of concurrent callers
// observes identical responses. The concurrent scan engine in
// internal/probe relies on this contract.
//
// Probe is a one-destination, one-lane call of the batch path: the same
// locate and full answer (both halves) ProbeLanes runs for a recording
// lane, over fresh cursors, with the answer materialized as a
// wire.Response instead of written into columns.
func (in *Internet) Probe(dst ip6.Addr, p wire.Proto, day int, at wire.Time) wire.Response {
	c := in.cursors()
	var o owner
	var raw rawResponse
	in.locate(&c, dst, day, &o)
	in.answer(&o, p, day, at, lossHalf(day, p), &raw)
	return in.materialize(&raw, day, at)
}

// rawResponse is the allocation-free internal probe answer an owner
// gives: the OK flag, the hop limit, and — for TCP
// probes — the responding machine and the per-probe fingerprint deltas
// the alias quirks apply. synAck describes its SYN-ACK; materialize turns
// it into a wire.Response (heap TCPInfo) and the batch emitter writes it
// straight into result columns. The answer functions fill one through
// a pointer: a struct of this many fields returned by value is spilled
// field by field and copied whole at every level it passes through, a
// store-forwarding stall per level per probe.
type rawResponse struct {
	ok       bool
	tcp      bool
	hop      uint8
	wsizeAdd uint16 // QuirkWSizeVary per-probe window delta
	mssSub   uint16 // QuirkMSSVary per-address MSS delta
	m        machineRef
	dstKey   uint64
}

// synAck is the SYN-ACK of a TCP answer sent at virtual time at on the
// given day: the machine's fingerprint with the alias quirks' deltas
// applied, and its timestamp value.
func (raw *rawResponse) synAck(day int, at wire.Time) wire.TCPInfo {
	m := raw.m.unpack()
	info := wire.TCPInfo{TCPFingerprint: m.fingerprint(), TSVal: m.tsVal(raw.dstKey, day, at)}
	info.WSize += raw.wsizeAdd
	info.MSS -= raw.mssSub
	return info
}

// materialize expands a rawResponse into the per-probe Response form,
// allocating the TCPInfo a wire.Response carries.
func (in *Internet) materialize(raw *rawResponse, day int, at wire.Time) wire.Response {
	if !raw.ok {
		return wire.Response{}
	}
	resp := wire.Response{OK: true, HopLimit: raw.hop}
	if raw.tcp {
		info := raw.synAck(day, at)
		resp.TCP = &info
	}
	return resp
}

// An answer has two halves. The decide half — decideAlias, decideHost,
// decideLine — makes every drop decision and so fixes OK: the SYN proxy's
// branch draw, what the owner serves, loss, rate limiting, death, the
// QUIC flap, client hours, which line members answer what. The describe
// half — describe, through answerRaw — builds the positive answer: hop
// limit, the responding machine and the per-probe fingerprint deltas the
// alias quirks apply. The describe half never refuses, so OK does not
// depend on whether the answer was described; ProbeLanes runs it only for
// lanes whose columns record it. lh, threaded through the decide half, is
// lossHalf(day, p) (see owner.lossKey).

// decideAlias reports whether region r answers a probe to o.dst (locate
// has already sent the region's hole elsewhere).
func (in *Internet) decideAlias(r *AliasRegion, o *owner, p wire.Proto, day int, lh uint64) bool {
	if r.Quirks&QuirkSYNProxy != 0 {
		// SYN proxy: TCP only, and only when today's connection-count
		// threshold hash says the proxy is in "defence mode" for this
		// branch. 3-5 of 16 branches respond, differing per day (§5.1).
		if !p.IsTCP() {
			return false
		}
		branch := o.dst.Nybble(r.Prefix.Bits() / 4) // first nybble below prefix
		return chance(hash3(r.Machine, uint64(day), uint64(branch)), 0.25)
	}
	if !r.Serves.Has(p) {
		return false
	}
	// Per-probe loss (plus rate limiting on specific branches per day).
	if chance(join(o.loss(in), lh), r.Loss) {
		return false
	}
	if r.Quirks&QuirkRateLimit != 0 {
		branch := o.dst.Nybble(r.Prefix.Bits() / 4)
		return !chance(hash3(r.Machine^0xacce1, uint64(day)<<5|uint64(p), uint64(branch)), 0.18)
	}
	return true
}

// quirkedMachine returns the effective machine for a destination,
// implementing the per-address fingerprint variation quirks.
func (r *AliasRegion) quirkedMachine(dstKey uint64) machineRef {
	if r.Quirks&QuirkProxyMix != 0 && dstKey%7 == 0 {
		// ~1/7 of addresses front a different backend.
		return machineRef{r.mixProf, r.mixMachine()}
	}
	return machineRef{r.prof, r.Machine}
}

// mixMachine is the key of a QuirkProxyMix region's second backend.
func (r *AliasRegion) mixMachine() uint64 { return hash64.Mix(r.Machine ^ 0xbac0e4d) }

// pathLen is the hop count to the region: a function of the world key
// and the region's AS alone, sealed into r.path.
func (r *AliasRegion) pathLen(in *Internet) uint8 {
	return uint8(3 + hash2(in.key^0x9a70, uint64(r.ASN))%9)
}

// decideHost reports whether the finite host at sorted column position
// o.id answers, with the loss parameter of o.net, the most specific
// announcement covering it (-1 if unannounced). Indices instead of
// pointers keep resolution on the flat columns.
func (in *Internet) decideHost(o *owner, p wire.Proto, day int, at wire.Time, lh uint64) bool {
	hc, hi := &in.hc, o.id
	if dd := hc.deathDay[hi]; dd >= 0 && day >= int(dd) {
		return false
	}
	if !hc.serves[hi].Has(p) {
		return false
	}
	dstKey := o.key(in)
	meta, mk := hc.meta[hi], hc.machine[hi]
	if meta&hostFlagQUIC != 0 && p == wire.UDP443 {
		// Flapping QUIC deployment: up only on "test days" per address.
		if !chance(hash3(mk^0x901c, uint64(day), dstKey), 0.75) {
			return false
		}
	}
	loss := 0.01
	if o.net >= 0 {
		loss = in.nets[o.net].loss
	}
	if class := HostClass(meta & hostClassMask); class == ClassClient || class == ClassBitnode {
		// Clients: session windows; see §9.3. Deterministic per (host,day).
		if !clientOnline(mk, day, at) {
			return false
		}
	}
	return !chance(join(o.loss(in), lh), loss)
}

// clientOnline models a client's daily uptime window (mean ≈ 8h).
func clientOnline(key uint64, day int, at wire.Time) bool {
	h := hash2(key, uint64(day))
	// 15% of days the device is off entirely.
	if chance(h, 0.15) {
		return false
	}
	start := h % 86_400_000_000 // μs offset of window start
	// Window length: roughly log-uniform between 30 min and 24 h.
	frac := unit(hash64.Mix(h))
	dur := uint64(1800_000_000) << uint(frac*5.5) // 0.5h .. 24h (capped)
	if dur > 86_400_000_000 {
		dur = 86_400_000_000
	}
	t := uint64(at) % 86_400_000_000
	end := start + dur
	if end <= 86_400_000_000 {
		return t >= start && t < end
	}
	return t >= start || t < end-86_400_000_000
}

// decideLine reports whether a subscriber-line device answers: member
// o.member of line o.line in the pool hanging off announcement o.id, as
// locate's lineAt found it for the day (rotating CPE/clients).
func (in *Internet) decideLine(o *owner, p wire.Proto, day int, at wire.Time, lh uint64) bool {
	nw := &in.nets[o.id]
	switch o.member {
	case lineCPE:
		return p == wire.ICMPv6 && !chance(join(o.loss(in), half(uint64(day))), nw.loss+0.02)
	case lineNAS:
		// Self-hosted servers behind CPE: web panel plus ICMP.
		if p != wire.ICMPv6 && p != wire.TCP80 {
			return false
		}
		return !chance(join(o.loss(in), lh), nw.loss+0.03)
	case lineClient:
		if p != wire.ICMPv6 {
			return false
		}
		mk := in.isps[nw.isp].clientMachine(o.line)
		// Most residential clients filter inbound ICMPv6 ("outbound
		// only", RFC 7084): only ~1 in 5 respond at all.
		return chance(hash2(mk, 0xf117e8), 0.22) && clientOnline(mk, day, at)
	}
	return false
}

// describe builds the positive answer o gives to a probe its decide half
// let through: the machine, hop count and iTTL-flip flag of o's plane,
// then, for aliased regions, the per-probe window and per-address MSS
// deltas of the region's quirks.
func (in *Internet) describe(o *owner, p wire.Proto, at wire.Time, raw *rawResponse) {
	dstKey := o.key(in)
	switch o.kind {
	case ownerAlias:
		r := &in.regions[o.id]
		q := r.Quirks
		if q&QuirkSYNProxy != 0 {
			q = 0 // the proxy answers alone: none of the other quirks show
		}
		in.answerRaw(r.quirkedMachine(dstKey), dstKey, p, at, r.path, q&QuirkTTLFlip != 0, raw)
		if !raw.tcp {
			return
		}
		if q&QuirkWSizeVary != 0 {
			// Host-state-dependent receive window: varies per probe.
			raw.wsizeAdd = uint16(hash3(r.Machine, dstKey, uint64(at)) % 5 * 1460)
		}
		if q&QuirkMSSVary != 0 && dstKey%5 == 0 {
			// Some addresses advertise path-specific MSS values.
			raw.mssSub = 8
		}
	case ownerHost:
		path, flip := uint8(5), false
		if o.net >= 0 {
			nw := &in.nets[o.net]
			path, flip = nw.pathLen, nw.jitter
		}
		in.answerRaw(machineRef{in.hc.profile[o.id], in.hc.machine[o.id]}, dstKey, p, at, path, flip, raw)
	case ownerLine:
		nw := &in.nets[o.id]
		isp := &in.isps[nw.isp]
		var mk uint64
		path := nw.pathLen + 1
		switch o.member {
		case lineCPE:
			mk, path = isp.cpeMachine(o.line), nw.pathLen
		case lineNAS:
			mk = isp.cpeMachine(o.line) ^ 0x4a5
		default:
			mk = isp.clientMachine(o.line)
		}
		in.answerRaw(deriveMachine(mk), dstKey, p, at, path, nw.jitter, raw)
	}
}

// answerRaw builds machine m's positive answer: hop limit plus, for TCP
// probes, the machine whose fingerprint the response carries. Timestamp
// values and the SYN-ACK (synAck) are left to the emitters
// (materialize for Probe, the column emitter in resolve.go for
// ProbeLanes). flipITTL swaps the iTTL between 64 and 255 on every
// odd-keyed destination — a per-address choice — and replaces the
// per-probe hop jitter every unflagged owner's answers carry.
func (in *Internet) answerRaw(m machineRef, dstKey uint64, p wire.Proto, at wire.Time, path uint8, flipITTL bool, raw *rawResponse) {
	ittl := m.prof.iTTL()
	if flipITTL && dstKey&1 == 1 {
		if ittl == 64 {
			ittl = 255
		} else {
			ittl = 64
		}
	}
	hops := path
	// On-path TTL jitter for a third of probes, unless flipped above.
	if !flipITTL {
		if jh := hash3(in.key^0x771, dstKey, uint64(at)); jh%3 == 0 {
			hops += uint8(jh >> 8 % 2)
		}
	}
	hl := uint8(1)
	if ittl > hops {
		hl = ittl - hops
	}
	*raw = rawResponse{ok: true, tcp: p.IsTCP(), hop: hl, m: m, dstKey: dstKey}
}

// networkOf returns the ID of the most-specific announcement covering
// addr, or -1 if unannounced.
func (in *Internet) networkOf(addr ip6.Addr) int32 {
	ni, ok := ip6.LookupInterval(in.tabs.nets, addr)
	if !ok {
		return -1
	}
	return ni
}

// poolOf returns the ID of the subscriber pool holding addr, or -1
// outside subscriber space. Pools hang off the operator's covering
// announcement, so this is the SHORTEST match.
func (in *Internet) poolOf(addr ip6.Addr) int32 {
	if ni, ok := ip6.LookupInterval(in.tabs.pools, addr); ok && in.nets[ni].isp >= 0 {
		return ni
	}
	return -1
}

// rngFor derives a deterministic rand.Rand for a construction sub-task.
func (in *Internet) rngFor(tag uint64) *rand.Rand { return seededRand(hash2(in.key, tag)) }

// seededRand returns the generator rand.New(rand.NewSource(int64(key)))
// would, over a lazily seeded source: the planners draw a handful of
// values per network.
func seededRand(key uint64) *rand.Rand {
	src := lazyrand.New(int64(key))
	return rand.New(&src)
}
