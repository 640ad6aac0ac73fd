// Package crowd implements the crowdsourcing client study of §9: two
// platforms (modeled on Amazon Mechanical Turk and Prolific Academic)
// recruit participants whose browsers run the test-ipv6.com-style check,
// yielding client IPv4/IPv6 addresses with AS and country attribution
// (Table 9); collected IPv6 clients are then pinged every few minutes to
// measure client responsiveness and uptime (§9.3), with RIPE Atlas
// probes in the same ASes as the upper-bound comparison.
package crowd

import (
	"sort"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/wire"
)

// Platform describes one crowdsourcing marketplace.
type Platform struct {
	Name string
	// Tasks is how many assignments the budget buys (budget / reward).
	Tasks int
	// CountryBias weights recruitment by country (unlisted = 1).
	CountryBias map[string]float64
}

// DefaultPlatforms returns MTurk- and ProA-like platforms scaled to the
// paper's participant counts ($150 each; $0.01 vs $0.12 per task).
func DefaultPlatforms(scale float64) []Platform {
	if scale <= 0 {
		scale = 1
	}
	return []Platform{
		{
			Name:  "Mturk",
			Tasks: int(5781 * scale),
			// MTurk skews to the US and India (§9.2).
			CountryBias: map[string]float64{"US": 6, "IN": 5, "CA": 1.5, "GB": 1.2},
		},
		{
			Name:        "ProA",
			Tasks:       int(1186 * scale),
			CountryBias: map[string]float64{"GB": 4, "US": 3, "PL": 1.5, "PT": 1.3},
		},
	}
}

// v6Adoption is the per-country probability that a recruited client has
// working IPv6 (coarse 2018 adoption numbers; default 0.10).
var v6Adoption = map[string]float64{
	"US": 0.36, "IN": 0.32, "DE": 0.40, "BE": 0.52, "GR": 0.34,
	"CH": 0.30, "GB": 0.24, "FR": 0.28, "BR": 0.26, "JP": 0.28,
	"CA": 0.22, "NL": 0.18, "PT": 0.16, "FI": 0.18, "AT": 0.16,
	"PL": 0.08, "IT": 0.05, "ES": 0.04, "RU": 0.05, "CN": 0.03,
}

func adoption(cc string) float64 {
	if p, ok := v6Adoption[cc]; ok {
		return p
	}
	return 0.10
}

// Participant is one crowdsourcing submission.
type Participant struct {
	Platform string
	Country  string
	HasIPv6  bool
	// V6 and ASN are set when HasIPv6 (the client device's address).
	V6  ip6.Addr
	ASN bgp.ASN
	// ASN4 is the synthetic IPv4-side AS identifier (every participant
	// has IPv4; mapped from the same access network).
	ASN4 uint32
}

func hash64(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// Recruit runs both platforms' campaigns on the given day: each buys
// Tasks submissions from the world's client population, one per user per
// platform. IPv6 presence follows country adoption.
func Recruit(world *netsim.Internet, platforms []Platform, day int, seed uint64) []Participant {
	// Pull a large pool of candidate clients (device snapshots).
	pool := world.ClientSnapshots(day, 1<<20)
	var out []Participant
	// A device participates at most once across platforms: the paper
	// finds overlapping ASes between platforms but no common addresses.
	used := map[ip6.Addr]bool{}
	for pi, pl := range platforms {
		if len(pool) == 0 {
			break
		}
		taken := 0
		// Deterministic weighted pass over the pool, offset per platform
		// so the two platforms see different (possibly overlapping-AS,
		// never overlapping-address) populations.
		for i := 0; taken < pl.Tasks && i < len(pool)*4; i++ {
			c := pool[hash64(seed, uint64(pi), uint64(i))%uint64(len(pool))]
			if used[c.Addr] {
				continue
			}
			used[c.Addr] = true
			bias := 1.0
			if b, ok := pl.CountryBias[c.Country]; ok {
				bias = b
			}
			h := hash64(seed, uint64(pi), uint64(i), 0xacce)
			if float64(h%1000)/1000 > bias/6 {
				continue
			}
			p := Participant{
				Platform: pl.Name,
				Country:  c.Country,
				ASN4:     uint32(c.ASN), // same access network carries IPv4
			}
			if float64(hash64(seed, c.Addr.Hi(), c.Addr.Lo())%1000)/1000 < adoption(c.Country) {
				p.HasIPv6 = true
				p.V6 = c.Addr
				p.ASN = c.ASN
			}
			out = append(out, p)
			taken++
		}
	}
	return out
}

// Table9Row is one row of Table 9.
type Table9Row struct {
	Name  string
	IPv4  int // participants (all have IPv4)
	IPv6  int // participants with IPv6
	ASes4 int
	ASes6 int
	CC4   int
	CC6   int
}

// Table9 computes the per-platform and unique rows.
func Table9(parts []Participant) []Table9Row {
	platforms := []string{}
	seen := map[string]bool{}
	for _, p := range parts {
		if !seen[p.Platform] {
			seen[p.Platform] = true
			platforms = append(platforms, p.Platform)
		}
	}
	var rows []Table9Row
	for _, name := range platforms {
		rows = append(rows, tallyRow(name, parts, func(p Participant) bool { return p.Platform == name }))
	}
	rows = append(rows, tallyRow("Unique", parts, func(Participant) bool { return true }))
	return rows
}

func tallyRow(name string, parts []Participant, keep func(Participant) bool) Table9Row {
	row := Table9Row{Name: name}
	as4, as6 := map[uint32]bool{}, map[bgp.ASN]bool{}
	cc4, cc6 := map[string]bool{}, map[string]bool{}
	for _, p := range parts {
		if !keep(p) {
			continue
		}
		row.IPv4++
		as4[p.ASN4] = true
		cc4[p.Country] = true
		if p.HasIPv6 {
			row.IPv6++
			as6[p.ASN] = true
			cc6[p.Country] = true
		}
	}
	row.ASes4, row.ASes6 = len(as4), len(as6)
	row.CC4, row.CC6 = len(cc4), len(cc6)
	return row
}

// ASOverlap returns the share of IPv6 ASes seen on both platforms and
// the number of IPv6 addresses common to both (the paper: 31.5% and 0).
func ASOverlap(parts []Participant) (asShare float64, commonAddrs int) {
	perPlatform := map[string]map[bgp.ASN]bool{}
	perAddr := map[string]map[ip6.Addr]bool{}
	for _, p := range parts {
		if !p.HasIPv6 {
			continue
		}
		if perPlatform[p.Platform] == nil {
			perPlatform[p.Platform] = map[bgp.ASN]bool{}
			perAddr[p.Platform] = map[ip6.Addr]bool{}
		}
		perPlatform[p.Platform][p.ASN] = true
		perAddr[p.Platform][p.V6] = true
	}
	var names []string
	for n := range perPlatform {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) < 2 {
		return 0, 0
	}
	a, b := perPlatform[names[0]], perPlatform[names[1]]
	union, inter := 0, 0
	for asn := range a {
		union++
		if b[asn] {
			inter++
		}
	}
	for asn := range b {
		if !a[asn] {
			union++
		}
	}
	for addr := range perAddr[names[0]] {
		if perAddr[names[1]][addr] {
			commonAddrs++
		}
	}
	if union == 0 {
		return 0, commonAddrs
	}
	return float64(inter) / float64(union), commonAddrs
}

// PingResult summarizes the §9.3 responsiveness study.
type PingResult struct {
	Clients    int
	Responsive int // clients answering ≥1 echo request
	// FullPeriod counts clients responsive on every study day.
	FullPeriod int
	// UnderHour / Under8h are shares of responsive clients whose total
	// observed uptime was <1h / ≤8h per day on average.
	UnderHour float64
	Under8h   float64
	// MeanUptimeH / MedianUptimeH are the mean/median daily uptime hours
	// of clients with dynamic (on/off) behaviour.
	MeanUptimeH   float64
	MedianUptimeH float64
	// AtlasResponsive is the responsive share of RIPE Atlas probes in
	// the participants' ASes (the upper bound: probes always answer
	// unless the ISP filters).
	AtlasResponsive float64
	// LastHopFiltered is the share of unresponsive clients whose
	// traceroute dies before the destination AS (ISP inbound filtering).
	LastHopFiltered float64
}

// PingStudy probes every IPv6 participant at the given interval (in
// minutes) for the given number of days, mirroring the paper's 5-minute
// echo cadence over a month.
func PingStudy(world *netsim.Internet, parts []Participant, days, intervalMin int) PingResult {
	var res PingResult
	if intervalMin <= 0 {
		intervalMin = 5
	}
	slotsPerDay := 24 * 60 / intervalMin
	var uptimes []float64
	asSet := map[bgp.ASN]bool{}
	for _, p := range parts {
		if !p.HasIPv6 {
			continue
		}
		res.Clients++
		asSet[p.ASN] = true
		daysSeen := 0
		activeSlots := 0
		for d := 0; d < days; d++ {
			dayActive := 0
			for s := 0; s < slotsPerDay; s++ {
				at := wire.Time(uint64(s) * uint64(intervalMin) * 60_000_000)
				if world.Probe(p.V6, wire.ICMPv6, d, at).OK {
					dayActive++
				}
			}
			if dayActive > 0 {
				daysSeen++
			}
			activeSlots += dayActive
		}
		if daysSeen == 0 {
			continue
		}
		res.Responsive++
		if daysSeen == days {
			res.FullPeriod++
		}
		uptimeH := float64(activeSlots) * float64(intervalMin) / 60 / float64(days)
		uptimes = append(uptimes, uptimeH)
	}
	if res.Responsive > 0 {
		under1, under8 := 0, 0
		for _, u := range uptimes {
			if u < 1 {
				under1++
			}
			if u <= 8 {
				under8++
			}
		}
		res.UnderHour = float64(under1) / float64(res.Responsive)
		res.Under8h = float64(under8) / float64(res.Responsive)
		sort.Float64s(uptimes)
		sum := 0.0
		for _, u := range uptimes {
			sum += u
		}
		res.MeanUptimeH = sum / float64(len(uptimes))
		res.MedianUptimeH = uptimes[len(uptimes)/2]
	}

	// Atlas comparison: probes in participant ASes.
	atlasTotal, atlasUp := 0, 0
	for _, h := range world.Hosts(netsim.ClassAtlas) {
		if !asSet[h.ASN] {
			continue
		}
		atlasTotal++
		for attempt := 0; attempt < 3; attempt++ {
			if world.Probe(h.Addr, wire.ICMPv6, 0, wire.Time(attempt*1000)).OK {
				atlasUp++
				break
			}
		}
	}
	if atlasTotal > 0 {
		res.AtlasResponsive = float64(atlasUp) / float64(atlasTotal)
	}

	// Filtering analysis: unresponsive clients whose path ends in a
	// foreign AS.
	unresp, filtered := 0, 0
	for _, p := range parts {
		if !p.HasIPv6 {
			continue
		}
		up := false
		for s := 0; s < 10 && !up; s++ {
			up = world.Probe(p.V6, wire.ICMPv6, 0, wire.Time(s)*3_600_000_000).OK
		}
		if up {
			continue
		}
		unresp++
		path := world.TraceroutePath(p.V6, 0)
		if len(path) > 0 && path[len(path)-1].ASN != p.ASN {
			filtered++
		}
	}
	if unresp > 0 {
		res.LastHopFiltered = float64(filtered) / float64(unresp)
	}
	return res
}
