// Package bgp provides the routing substrate for the hitlist pipeline: a
// table of announced IPv6 prefixes with origin ASes, an AS registry with
// operator names and categories, a generator that builds a
// synthetic-but-realistic global routing table for the simulated
// Internet, and the attribution kernel every per-prefix and per-AS tally
// of the analysis plane goes through.
//
// The paper resolves every hitlist address to its announced BGP prefix and
// origin AS (via pyasn over RIB dumps); this package plays that role.
// NewTable compiles a Table once from its registry and announcements: one
// sorted announcement column plus the disjoint interval table compiled
// from it (ip6.CompileIntervals), so a point query is a binary search and
// a sorted address stream is a cursor walk (ip6.IntervalCursor) — the
// same table, by reference, that the simulated world probes against.
package bgp

import (
	"fmt"
	"math/rand"

	"expanse/internal/ip6"
)

// ASN is an autonomous system number.
type ASN uint32

// Kind categorizes an AS by its dominant business; the simulator derives
// addressing schemes, host density, and aliasing behaviour from it.
type Kind int

// AS categories. The distribution over kinds drives hitlist bias: CDNs
// dominate DNS-derived sources, ISPs dominate traceroute-derived ones.
const (
	KindCDN Kind = iota
	KindCloud
	KindHoster
	KindISP
	KindAcademic
	KindEnterprise
	KindInternetService // search, mail, SaaS
	numKinds
)

// String returns a short human-readable category name.
func (k Kind) String() string {
	switch k {
	case KindCDN:
		return "cdn"
	case KindCloud:
		return "cloud"
	case KindHoster:
		return "hoster"
	case KindISP:
		return "isp"
	case KindAcademic:
		return "academic"
	case KindEnterprise:
		return "enterprise"
	case KindInternetService:
		return "service"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ASInfo describes a registered autonomous system.
type ASInfo struct {
	ASN     ASN
	Name    string
	Kind    Kind
	Country string // ISO 3166-1 alpha-2
}

// Announcement is one routing-table entry.
type Announcement struct {
	Prefix ip6.Prefix
	Origin ASN
}

// RegistryConfig controls synthetic routing-table generation.
type RegistryConfig struct {
	// ASes is the number of autonomous systems beyond the named majors.
	ASes int
	// PrefixesPerAS is the mean number of announcements per synthetic AS
	// (geometric-ish tail; majors announce many more).
	PrefixesPerAS float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultRegistryConfig mirrors the paper's scale at roughly 1:5 — the
// paper sees 10.9k ASes and ~56k announced prefixes; the default builds
// ~2.2k ASes and ~11k prefixes, preserving the shape of the distributions
// while keeping a full pipeline run fast.
func DefaultRegistryConfig() RegistryConfig {
	return RegistryConfig{ASes: 2200, PrefixesPerAS: 4.5, Seed: 0x1970}
}

// Majors are the operators named in the paper's tables; the simulator
// gives them the roles the paper observed (Amazon hosting the aliased /48
// "hook", DTAG as a large ISP, and so on). Exported so that reports can
// label them.
var Majors = []ASInfo{
	{ASN: 16509, Name: "Amazon", Kind: KindCloud, Country: "US"},
	{ASN: 20773, Name: "Host Europe", Kind: KindHoster, Country: "DE"},
	{ASN: 13335, Name: "Cloudflare", Kind: KindCDN, Country: "US"},
	{ASN: 63949, Name: "Linode", Kind: KindCloud, Country: "US"},
	{ASN: 3320, Name: "DTAG", Kind: KindISP, Country: "DE"},
	{ASN: 12322, Name: "ProXad", Kind: KindISP, Country: "FR"},
	{ASN: 24940, Name: "Hetzner", Kind: KindHoster, Country: "DE"},
	{ASN: 7922, Name: "Comcast", Kind: KindISP, Country: "US"},
	{ASN: 3303, Name: "Swisscom", Kind: KindISP, Country: "CH"},
	{ASN: 15169, Name: "Google", Kind: KindInternetService, Country: "US"},
	{ASN: 6057, Name: "Antel", Kind: KindISP, Country: "UY"},
	{ASN: 8881, Name: "Versatel", Kind: KindISP, Country: "DE"},
	{ASN: 9146, Name: "BIHNET", Kind: KindISP, Country: "BA"},
	{ASN: 20940, Name: "Akamai", Kind: KindCDN, Country: "US"},
	{ASN: 19551, Name: "Incapsula", Kind: KindCDN, Country: "US"},
	{ASN: 7018, Name: "AT&T", Kind: KindISP, Country: "US"},
	{ASN: 55836, Name: "Reliance", Kind: KindISP, Country: "IN"},
	{ASN: 12876, Name: "Online S.A.S.", Kind: KindHoster, Country: "FR"},
	{ASN: 47583, Name: "Sunokman", Kind: KindHoster, Country: "AM"},
	{ASN: 2588, Name: "Latnet Serviss", Kind: KindHoster, Country: "LV"},
	{ASN: 13238, Name: "Yandex", Kind: KindInternetService, Country: "RU"},
	{ASN: 14340, Name: "Salesforce", Kind: KindInternetService, Country: "US"},
	{ASN: 6697, Name: "Belpak", Kind: KindISP, Country: "BY"},
	{ASN: 22606, Name: "AWeber", Kind: KindInternetService, Country: "US"},
	{ASN: 2519, Name: "Freebit", Kind: KindHoster, Country: "JP"},
	{ASN: 9370, Name: "Sakura", Kind: KindHoster, Country: "JP"},
	{ASN: 20857, Name: "TransIP", Kind: KindHoster, Country: "NL"},
	{ASN: 5607, Name: "Sky Broadband", Kind: KindISP, Country: "GB"},
	{ASN: 16591, Name: "Google Fiber", Kind: KindISP, Country: "US"},
	{ASN: 3265, Name: "Xs4all", Kind: KindISP, Country: "NL"},
	{ASN: 33915, Name: "HDNet", Kind: KindCDN, Country: "NL"},
	{ASN: 1955, Name: "ZTE Home", Kind: KindISP, Country: "CN"},
}

// countries used for the synthetic AS tail, weighted toward IPv6-heavy
// economies (matters for the crowdsourcing study in §9).
var tailCountries = []string{
	"US", "DE", "FR", "GB", "NL", "JP", "IN", "BR", "CN", "RU",
	"IT", "ES", "PL", "SE", "CH", "BE", "AT", "CZ", "FI", "GR",
	"CA", "AU", "KR", "MX", "AR", "ZA", "TR", "UA", "RO", "PT",
}

// Generate builds a deterministic synthetic global IPv6 routing table.
//
// Layout of the synthetic address space: every AS is carved out of
// 2a00::/12-style documentation-safe space by index, so prefixes never
// collide. Each AS gets a /29 "allocation" from which it announces:
//   - one or more /32s (the common RIR allocation unit, cf. §4.2),
//   - possibly /48 more-specifics (PI space, customer routes, CDN PoPs).
//
// Majors get role-appropriate announcements, most importantly Amazon's
// and Incapsula's many /48s that form the aliased "hook" of Figure 5.
func Generate(cfg RegistryConfig) *Table {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ases []ASInfo
	var anns []Announcement
	announce := func(p ip6.Prefix, origin ASN) {
		anns = append(anns, Announcement{Prefix: p, Origin: origin})
	}

	allocIdx := uint64(0)
	// nextAlloc returns a fresh /29 so every AS's space is disjoint:
	// 2000::/3 + 26 bits of index.
	nextAlloc := func() ip6.Prefix {
		base := ip6.AddrFromUint64(0x2000_0000_0000_0000|allocIdx<<35, 0)
		allocIdx++
		return ip6.PrefixFrom(base, 29)
	}

	for _, m := range Majors {
		ases = append(ases, m)
		alloc := nextAlloc()
		switch m.Kind {
		case KindCloud, KindCDN:
			// A couple of /32s plus a swarm of /48s (PoPs, customer
			// ranges). Amazon and Incapsula get the big /48 groups that
			// dominate aliasing in §5.3.
			n48 := 12 + rng.Intn(12)
			if m.Name == "Amazon" {
				n48 = 189 // the paper: "189 /48 prefixes announced by Amazon"
			}
			if m.Name == "Incapsula" {
				n48 = 64
			}
			for i := 0; i < 2; i++ {
				announce(alloc.Subprefix(32, uint64(i)), m.ASN)
			}
			for i := 0; i < n48; i++ {
				// /48s inside the third /32 of the allocation.
				p32 := alloc.Subprefix(32, 2)
				announce(p32.Subprefix(48, uint64(i)), m.ASN)
			}
		case KindISP:
			// ISPs: one short prefix (/29 or /32) plus a handful of
			// regional /32-/36 more-specifics.
			announce(alloc, m.ASN)
			for i := 0; i < 3+rng.Intn(5); i++ {
				announce(alloc.Subprefix(32+4*rng.Intn(2), uint64(i)), m.ASN)
			}
		default:
			announce(alloc.Subprefix(32, 0), m.ASN)
			for i := 0; i < rng.Intn(4); i++ {
				announce(alloc.Subprefix(48, uint64(i)), m.ASN)
			}
		}
	}

	// Synthetic tail: ASNs from 100000 up (32-bit space), mixed kinds.
	for i := 0; i < cfg.ASes; i++ {
		asn := ASN(100000 + i)
		kind := pickKind(rng)
		ases = append(ases, ASInfo{
			ASN:     asn,
			Name:    fmt.Sprintf("%s-net-%d", kind, i),
			Kind:    kind,
			Country: tailCountries[rng.Intn(len(tailCountries))],
		})
		alloc := nextAlloc()
		// Number of announcements: 1 + geometric tail around the mean.
		n := 1
		for rng.Float64() < 1-1/cfg.PrefixesPerAS && n < 40 {
			n++
		}
		announce(alloc.Subprefix(32, 0), asn)
		for j := 1; j < n; j++ {
			length := 32 + 4*rng.Intn(5) // /32../48
			announce(alloc.Subprefix(length, uint64(j)), asn)
		}
	}
	return NewTable(ases, anns)
}

func pickKind(rng *rand.Rand) Kind {
	// Rough global mix: ISPs and hosters dominate AS counts.
	r := rng.Float64()
	switch {
	case r < 0.40:
		return KindISP
	case r < 0.62:
		return KindHoster
	case r < 0.72:
		return KindEnterprise
	case r < 0.82:
		return KindAcademic
	case r < 0.90:
		return KindInternetService
	case r < 0.96:
		return KindCloud
	default:
		return KindCDN
	}
}

// FindASN returns the ASN of the named major operator, or 0 if unknown.
func FindASN(name string) ASN {
	for _, m := range Majors {
		if m.Name == name {
			return m.ASN
		}
	}
	return 0
}
