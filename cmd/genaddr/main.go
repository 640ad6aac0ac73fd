// Command genaddr learns new IPv6 addresses from the simulated hitlist
// with Entropy/IP and 6Gen (§7) and reports their responsiveness.
//
// Usage:
//
//	genaddr [-scale 0.3] [-budget 1000] [-tool both|eip|6gen] [-workers 8] [-overlap 2] [-print 0]
package main

import (
	"flag"
	"fmt"

	"expanse/internal/core"
	"expanse/internal/eip"
	"expanse/internal/ip6"
	"expanse/internal/sixgen"
)

func main() {
	scale := flag.Float64("scale", 0.3, "simulation scale")
	budget := flag.Int("budget", 1000, "generation budget per AS")
	tool := flag.String("tool", "both", "generator: eip, 6gen, or both")
	printN := flag.Int("print", 0, "print the first N generated addresses")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	overlap := flag.Int("overlap", 0, "day-orchestrator pipeline depth (0 = default, 1 = serial)")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.Workers = *workers
	if *overlap > 0 {
		cfg.Overlap = *overlap
	}
	p := core.New(cfg)
	p.Collect()
	day := p.World.Horizon()
	p.RunDaysFunc(day, cfg.APDWindow, func(*core.Epoch) {})
	clean := p.CleanTargets()
	fmt.Printf("non-aliased seed addresses: %d\n", len(clean))

	// The split is in AS order, which fixes the generated-address order
	// and with it the sweep's probe schedule.
	perAS := p.World.Table.SplitByAS(clean, p.Cfg.Workers)

	runTool := func(name string, gen func(seeds []ip6.Addr) []ip6.Addr) {
		seen := ip6.NewSet(1 << 16)
		var out []ip6.Addr
		ases := 0
		for _, as := range perAS {
			if len(as.Addrs) < cfg.GroupMin() {
				continue
			}
			ases++
			for _, a := range gen(as.Addrs) {
				if p.World.Table.IsRouted(a) && !p.Hitlist().Contains(a) && seen.Add(a) {
					out = append(out, a)
				}
			}
		}
		scan := p.Sweep(out, day)
		resp := scan.AnyResponsive()
		fmt.Printf("%-10s ASes=%d generated(new,routable)=%d responsive=%d (%.2f%%)\n",
			name, ases, len(out), len(resp), 100*float64(len(resp))/float64(max(len(out), 1)))
		for i := 0; i < *printN && i < len(out); i++ {
			fmt.Println("  ", out[i])
		}
	}

	if *tool == "eip" || *tool == "both" {
		runTool("Entropy/IP", func(seeds []ip6.Addr) []ip6.Addr {
			return eip.Build(seeds).Generate(*budget)
		})
	}
	if *tool == "6gen" || *tool == "both" {
		runTool("6Gen", func(seeds []ip6.Addr) []ip6.Addr {
			return sixgen.Generate(seeds, *budget, sixgen.Config{})
		})
	}
}
