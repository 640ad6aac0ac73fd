// Command hitlist runs the full IPv6 hitlist pipeline against the
// simulated Internet and prints any (or all) of the paper's reproduced
// tables and figures.
//
// Usage:
//
//	hitlist [-scale 1.0] [-seed 93208] [-workers 8] [-report all] [-svgdir DIR]
//
// Report identifiers match the paper's numbering (table1, fig1a, sec53,
// …); core.Reports lists them all, in the order -report all prints them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"expanse/internal/core"
	"expanse/internal/prof"
)

func main() {
	scale := flag.Float64("scale", 1.0, "simulation scale (1.0 ≈ 1:100 of the paper)")
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	report := flag.String("report", "all", "comma-separated report ids, or 'all'")
	svgdir := flag.String("svgdir", "", "directory to write zesplot SVGs (optional)")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles := func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	defer stopProfiles()
	// fail is the one error exit: os.Exit skips deferred calls, so the
	// requested profiles are flushed here first.
	fail := func(code int, msg any) {
		fmt.Fprintln(os.Stderr, msg)
		stopProfiles()
		os.Exit(code)
	}

	// The ids are checked before the Lab exists: building the world is
	// the expensive part, and a typo should not have to wait for it.
	selected := core.Reports
	if *report != "all" {
		selected = nil
		for _, id := range strings.Split(*report, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			i := slices.IndexFunc(core.Reports, func(e core.ReportEntry) bool { return e.ID == id })
			if i < 0 {
				fail(2, fmt.Sprintf("unknown report %q", id))
			}
			selected = append(selected, core.Reports[i])
		}
	}

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.Workers = *workers
	if *seed != 0 {
		cfg.Sim.Seed = *seed
	}
	lab := core.NewLab(cfg)
	for _, e := range selected {
		fmt.Println(e.Run(lab).String())
	}

	if *svgdir != "" {
		if err := os.MkdirAll(*svgdir, 0o755); err != nil {
			fail(1, err)
		}
		write := func(name, svg string) {
			path := filepath.Join(*svgdir, name)
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fail(1, err)
			}
			fmt.Println("wrote", path)
		}
		write("fig1c.svg", lab.Fig1cSVG())
		a, b := lab.Fig5SVGs()
		write("fig5a.svg", a)
		write("fig5b.svg", b)
		write("fig6.svg", lab.Fig6SVG())
	}
}
