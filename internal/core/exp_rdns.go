package core

import (
	"fmt"
	"math/rand"

	"expanse/internal/ip6"
	"expanse/internal/rdns"
	"expanse/internal/stats"
	"expanse/internal/wire"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// rdnsState caches the §8 rDNS study.
type rdnsState struct {
	walked    []ip6.Addr
	queries   int
	newAddrs  int
	unrouted  int
	inAliased int
	scan      *Scan
}

// rdnsStudy walks the reverse tree, applies the §8 filtering (unrouted
// and aliased addresses removed), and probes the rest.
func (l *Lab) rdnsStudy() *rdnsState { return l.rdns.get(l.buildRDNS) }

func (l *Lab) buildRDNS() *rdnsState {
	filter := l.windowEpoch().Filter
	st := &rdnsState{}
	res := rdns.Walk(l.P.DNS.Reverse())
	st.walked = res.Addrs
	st.queries = res.Queries

	hitlist := l.store().All()
	var targets []ip6.Addr
	for _, a := range st.walked {
		if !hitlist.Contains(a) {
			st.newAddrs++
		}
		if !l.P.World.Table.IsRouted(a) {
			st.unrouted++
			continue
		}
		if filter.IsAliased(a) {
			st.inAliased++
			continue
		}
		targets = append(targets, a)
	}
	st.scan = l.P.Sweep(targets, l.measureDay())
	return st
}

// Sec8 reproduces the rDNS source evaluation: novelty, filtering, and
// response rates compared with the curated hitlist.
func (l *Lab) Sec8() *Report {
	st, clean := l.rdnsStudy(), l.cleanScan()
	r := &Report{ID: "Sec 8", Title: "rDNS as a data source"}
	r.addf("rDNS addresses walked: %d (DNS queries issued: %d)", len(st.walked), st.queries)
	r.addf("new vs hitlist: %d (%.1f%%)", st.newAddrs, 100*float64(st.newAddrs)/float64(max(len(st.walked), 1)))
	r.addf("filtered: %d unrouted, %d in aliased prefixes", st.unrouted, st.inAliased)

	rate := func(s *Scan, p wire.Proto) float64 {
		if len(s.Addrs) == 0 {
			return 0
		}
		return float64(s.Count(p)) / float64(len(s.Addrs))
	}
	r.addf("%-10s %8s %8s %8s", "population", "ICMP", "TCP/80", "TCP/443")
	r.addf("%-10s %7.1f%% %7.1f%% %7.1f%%", "rDNS",
		100*rate(st.scan, wire.ICMPv6), 100*rate(st.scan, wire.TCP80), 100*rate(st.scan, wire.TCP443))
	r.addf("%-10s %7.1f%% %7.1f%% %7.1f%%", "hitlist",
		100*rate(clean, wire.ICMPv6), 100*rate(clean, wire.TCP80), 100*rate(clean, wire.TCP443))

	// Client indicators: SLAAC ff:fe share and IID hamming weight.
	slaac := 0
	weights := stats.NewHistogram(0, 64)
	tcp80 := st.scan.Responsive(wire.TCP80)
	for _, a := range tcp80 {
		if a.IsSLAAC() {
			slaac++
		}
		weights.Observe(a.IIDHammingWeight())
	}
	if len(tcp80) > 0 {
		r.addf("TCP/80 responders: %.1f%% SLAAC; %.0f%% with IID hamming weight <= 6",
			100*float64(slaac)/float64(len(tcp80)), 100*weights.FractionAtMost(6))
	}
	return r
}

// Table8 reproduces the top-5 rDNS ASes in the input and among ICMP and
// TCP/80 responders.
func (l *Lab) Table8() *Report {
	st := l.rdnsStudy()
	r := &Report{ID: "Table 8", Title: "Top 5 rDNS ASes: input, ICMP responders, TCP/80 responders"}
	top5 := func(addrs []ip6.Addr) []string {
		var out []string
		for _, e := range l.tally(addrs).TopAS(5) {
			out = append(out, fmt.Sprintf("%s %.1f%%",
				l.P.World.Table.AS(e.ASN).Name, 100*float64(e.Count)/float64(max(len(addrs), 1))))
		}
		return out
	}
	in := top5(st.walked)
	icmp := top5(st.scan.Responsive(wire.ICMPv6))
	tcp := top5(st.scan.Responsive(wire.TCP80))
	r.addf("%-2s %-28s %-28s %-28s", "#", "Input", "ICMP", "TCP/80")
	for i := 0; i < 5; i++ {
		get := func(s []string) string {
			if i < len(s) {
				return s[i]
			}
			return "-"
		}
		r.addf("%-2d %-28s %-28s %-28s", i+1, get(in), get(icmp), get(tcp))
	}
	return r
}

// Fig10 reproduces the prefix/AS concentration of hitlist vs rDNS input.
func (l *Lab) Fig10() *Report {
	walked := l.tally(l.rdnsStudy().walked)
	r := &Report{ID: "Fig 10", Title: "Prefix/AS distribution: hitlist vs rDNS input"}
	hitlist := l.tally(l.store().All().Sorted())
	r.addConcentration("population", 18, 1000, "  (gini %.2f)",
		concRow{"Hitlist [Prefix]", hitlist.Concentration(false)},
		concRow{"Hitlist [AS]", hitlist.Concentration(true)},
		concRow{"rDNS [Prefix]", walked.Concentration(false)},
		concRow{"rDNS [AS]", walked.Concentration(true)})
	return r
}
