// Quickstart: build a small simulated Internet, collect the hitlist from
// all seven sources, remove aliased prefixes, and probe what remains —
// the §6 daily pipeline in ~40 lines.
package main

import (
	"fmt"

	"expanse/internal/core"
	"expanse/internal/wire"
)

func main() {
	// TestConfig is a small world that runs in seconds; DefaultConfig is
	// the full 1:100-scale reproduction.
	p := core.New(core.TestConfig())

	// 1-2. Collect and merge the sources (domain lists, FDNS, CT, AXFR,
	// Bitnodes, RIPE Atlas, scamper traceroutes).
	p.Collect()
	fmt.Printf("hitlist: %d addresses\n", p.Hitlist().Len())

	// 3. Multi-level aliased prefix detection with a 3-day sliding
	// window; day numbering continues after the collection horizon.
	day := p.World.Horizon()
	for d := 0; d < p.Cfg.APDWindow; d++ {
		p.RunAPD(day + d)
	}
	clean := p.CleanTargets()
	fmt.Printf("after de-aliasing: %d targets (%d aliased prefixes)\n",
		len(clean), len(p.Latest().Filter.AliasedPrefixes()))

	// 4-5. Probe the curated targets on all five protocols.
	scan := p.Sweep(clean, day)
	fmt.Printf("responsive: %d targets\n", len(scan.AnyResponsive()))
	for _, proto := range wire.Protos {
		fmt.Printf("  %-8s %d\n", proto, scan.Count(proto))
	}
}
