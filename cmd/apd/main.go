// Command apd runs multi-level aliased prefix detection against the
// simulated Internet and prints detected aliased prefixes with their
// verification against ground truth.
//
// Usage:
//
//	apd [-scale 0.3] [-days 4] [-window 3] [-workers 8] [-overlap 2] [-sweep] [-murdock]
//
// With -sweep every day is sealed with its five-protocol responsiveness
// sweep of the curated targets — the daily service of §6, and the shape to
// profile (-cpuprofile, -memprofile) when sizing day-loop work.
package main

import (
	"flag"
	"fmt"
	"os"

	"expanse/internal/apd"
	"expanse/internal/core"
	"expanse/internal/prof"
)

func main() {
	scale := flag.Float64("scale", 0.3, "simulation scale")
	days := flag.Int("days", 4, "APD probing days")
	window := flag.Int("window", 3, "sliding window (days)")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	overlap := flag.Int("overlap", 0, "day-orchestrator pipeline depth (0 = default, 1 = serial)")
	sweep := flag.Bool("sweep", false, "seal every day with its five-protocol sweep of the clean targets")
	murdock := flag.Bool("murdock", false, "also run the Murdock et al. /96 baseline")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.APDWindow = *window
	cfg.Workers = *workers
	cfg.EpochSweep = *sweep
	if *overlap > 0 {
		cfg.Overlap = *overlap
	}
	p := core.New(cfg)
	fmt.Println("collecting hitlist sources…")
	p.Collect()
	fmt.Printf("hitlist: %d addresses\n", p.Hitlist().Len())

	day := p.World.Horizon()
	// Stream the epochs: the per-day line needs nothing past its own
	// epoch, and dropping each one keeps long -days runs at the
	// pipeline's working set instead of retaining every day's filter.
	p.RunDaysFunc(day, *days, func(ep *core.Epoch) {
		fmt.Printf("APD day %d: %d candidates probed", ep.Index, len(ep.Candidates))
		if ep.Scan != nil {
			fmt.Printf(", %d clean targets swept, %d responsive", len(ep.Scan.Addrs), ep.Scan.AnyCount())
		}
		fmt.Println()
	})

	ep := p.Latest()
	aliased := ep.Filter.AliasedPrefixes()
	fmt.Printf("\naliased prefixes detected: %d (probes sent: %d)\n", len(aliased), p.APDProbesSent())
	tp := 0
	byLen := map[int]int{}
	for _, pre := range aliased {
		byLen[pre.Bits()]++
		if p.World.GroundTruthAliased(pre.Addr()) {
			tp++
		}
	}
	fmt.Printf("ground-truth confirmed: %d/%d\n", tp, len(aliased))
	fmt.Print("by prefix length:")
	for l := 0; l <= 128; l++ {
		if byLen[l] > 0 {
			fmt.Printf(" /%d=%d", l, byLen[l])
		}
	}
	fmt.Println()

	clean, al, _ := ep.Split()
	fmt.Printf("hitlist split: %d clean, %d aliased (%.1f%%)\n",
		len(clean), len(al), 100*float64(len(al))/float64(p.Hitlist().Len()))

	if *murdock {
		md := apd.NewMurdockDetector(p.World)
		cands := md.Candidates(p.Hitlist().Sorted())
		aliased := apd.NewFilter(md.Detect(cands, day)).AliasedPrefixes()
		fmt.Printf("\nMurdock /96 baseline: %d candidates, %d aliased, %d probes\n",
			len(cands), len(aliased), md.ProbesSent)
	}
}
