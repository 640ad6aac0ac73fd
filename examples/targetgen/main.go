// Targetgen: the §7 workflow — learn previously unknown addresses from
// the hitlist with Entropy/IP and 6Gen, probe them, and compare the two
// tools' hit rates and population types.
package main

import (
	"fmt"

	"expanse/internal/core"
	"expanse/internal/eip"
	"expanse/internal/ip6"
	"expanse/internal/sixgen"
	"expanse/internal/stats"
)

func main() {
	p := core.New(core.TestConfig())
	p.Collect()
	day := p.World.Horizon()
	for d := 0; d < p.Cfg.APDWindow; d++ {
		p.RunAPD(day + d)
	}

	// Seeds: non-aliased addresses, split by AS (§7.1: aliased prefixes
	// would artificially inflate response rates).
	perAS := p.World.Table.SplitByAS(p.CleanTargets(), p.Cfg.Workers)
	sizes := make([]int, len(perAS))
	for i, as := range perAS {
		sizes[i] = len(as.Addrs)
	}

	const budget = 800
	fmt.Printf("%-24s %7s %12s %12s %10s %10s\n", "AS", "seeds", "eip-new", "6gen-new", "eip-resp", "6gen-resp")
	// Work on the five largest eligible ASes for a readable report
	// (equal sizes rank by ASN, so the list never flickers between runs).
	for _, i := range stats.TopN(sizes, 5) {
		e := perAS[i]
		if len(e.Addrs) < 50 {
			break
		}
		model := eip.Build(e.Addrs)
		eipGen := filterNew(p, model.Generate(budget))
		sixGen := filterNew(p, sixgen.Generate(e.Addrs, budget, sixgen.Config{}))
		eipResp := len(p.Sweep(eipGen, day).AnyResponsive())
		sixResp := len(p.Sweep(sixGen, day).AnyResponsive())
		fmt.Printf("%-24s %7d %12d %12d %10d %10d\n",
			p.World.Table.AS(e.ASN).Name, len(e.Addrs), len(eipGen), len(sixGen), eipResp, sixResp)
	}
	fmt.Println("\nthe paper's lesson (§7.3): the tools find complementary sets —")
	fmt.Println("run both and merge.")
}

func filterNew(p *core.Pipeline, gen []ip6.Addr) []ip6.Addr {
	var out []ip6.Addr
	for _, a := range gen {
		if p.World.Table.IsRouted(a) && !p.Hitlist().Contains(a) {
			out = append(out, a)
		}
	}
	return out
}
