// rDNS study: the §8 workflow — walk the ip6.arpa reverse tree with
// NXDOMAIN pruning, filter unrouted and aliased addresses, probe the
// rest, and decide whether rDNS makes a good hitlist source.
package main

import (
	"fmt"

	"expanse/internal/core"
	"expanse/internal/ip6"
	"expanse/internal/rdns"
	"expanse/internal/wire"
)

func main() {
	p := core.New(core.TestConfig())
	p.Collect()
	day := p.World.Horizon()
	for d := 0; d < p.Cfg.APDWindow; d++ {
		p.RunAPD(day + d)
	}

	// Walk the reverse tree. The query counter shows why the paper calls
	// this source "semi-public": enumeration costs real DNS traffic.
	res := rdns.Walk(p.DNS.Reverse())
	fmt.Printf("rDNS walk: %d addresses from %d DNS queries (%.1f q/addr)\n",
		len(res.Addrs), res.Queries, float64(res.Queries)/float64(max(len(res.Addrs), 1)))

	newCount := 0
	var clean []ip6.Addr
	for _, a := range res.Addrs {
		if !p.Hitlist().Contains(a) {
			newCount++
		}
		if !p.World.Table.IsRouted(a) || p.Latest().IsAliased(a) {
			continue
		}
		clean = append(clean, a)
	}
	fmt.Printf("new vs hitlist: %d (%.1f%%); probing %d after filtering\n",
		newCount, 100*float64(newCount)/float64(len(res.Addrs)), len(clean))

	scan := p.Sweep(clean, day)
	fmt.Printf("responsive: ICMP %.1f%%, TCP/80 %.1f%%, TCP/443 %.1f%%\n",
		pct(scan.Count(wire.ICMPv6), len(clean)),
		pct(scan.Count(wire.TCP80), len(clean)),
		pct(scan.Count(wire.TCP443), len(clean)))

	// Client check (§8): SLAAC share among TCP/80 responders should be
	// low if the population is servers.
	slaac := 0
	tcp := scan.Responsive(wire.TCP80)
	for _, a := range tcp {
		if a.IsSLAAC() {
			slaac++
		}
	}
	if len(tcp) > 0 {
		fmt.Printf("TCP/80 responders with SLAAC addresses: %.1f%% (servers dominate)\n",
			pct(slaac, len(tcp)))
	}
	fmt.Println("\nconclusion (§8): balanced AS mix, mostly-new, server-heavy —")
	fmt.Println("add rDNS as a hitlist input.")
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
