// Command hitlist runs the full IPv6 hitlist pipeline against the
// simulated Internet and prints any (or all) of the paper's reproduced
// tables and figures.
//
// Usage:
//
//	hitlist [-scale 1.0] [-seed 93208] [-workers 8] [-report all] [-svgdir DIR]
//
// Report identifiers match the paper: table1 table2 fig1a fig1b fig1c
// fig2a fig2b fig3a fig3b table3 table4 sec53 fig4 fig5 table5 table6
// sec55 fig6 fig7 fig8 sec72 sec73 table7 fig9 sec8 table8 fig10 table9
// sec93 ablation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

	reports := map[string]func(*core.Lab) *core.Report{
		"table1": (*core.Lab).Table1, "table2": (*core.Lab).Table2,
		"fig1a": (*core.Lab).Fig1a, "fig1b": (*core.Lab).Fig1b, "fig1c": (*core.Lab).Fig1c,
		"fig2a": (*core.Lab).Fig2a, "fig2b": (*core.Lab).Fig2b, "fig3a": (*core.Lab).Fig3a, "fig3b": (*core.Lab).Fig3b,
		"table3": (*core.Lab).Table3, "table4": (*core.Lab).Table4, "sec53": (*core.Lab).Sec53,
		"fig4": (*core.Lab).Fig4, "fig5": (*core.Lab).Fig5, "table5": (*core.Lab).Table5,
		"table6": (*core.Lab).Table6, "sec55": (*core.Lab).Sec55,
		"fig6": (*core.Lab).Fig6, "fig7": (*core.Lab).Fig7, "fig8": (*core.Lab).Fig8,
		"sec72": (*core.Lab).Sec72, "sec73": (*core.Lab).Sec73, "table7": (*core.Lab).Table7, "fig9": (*core.Lab).Fig9,
		"sec8": (*core.Lab).Sec8, "table8": (*core.Lab).Table8, "fig10": (*core.Lab).Fig10,
		"table9": (*core.Lab).Table9, "sec93": (*core.Lab).Sec93, "ablation": (*core.Lab).AblationGenerators,
	}
	order := []string{
		"table1", "table2", "fig1a", "fig1b", "fig1c",
		"fig2a", "fig2b", "fig3a", "fig3b",
		"table3", "table4", "sec53", "fig4", "fig5", "table5", "table6", "sec55",
		"fig6", "fig7", "fig8",
		"sec72", "sec73", "table7", "fig9",
		"sec8", "table8", "fig10", "table9", "sec93", "ablation",
	}

	// The ids are checked before the Lab exists: building the world is
	// the expensive part, and a typo should not have to wait for it.
	var selected []string
	if *report == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*report, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := reports[id]; !ok {
				fail(2, fmt.Sprintf("unknown report %q", id))
			}
			selected = append(selected, id)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.Workers = *workers
	if *seed != 0 {
		cfg.Sim.Seed = *seed
	}
	lab := core.NewLab(cfg)
	for _, id := range selected {
		fmt.Println(reports[id](lab).String())
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
