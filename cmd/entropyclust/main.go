// Command entropyclust runs the paper's entropy-clustering method (§4)
// over the simulated hitlist: per-network nybble-entropy fingerprints,
// elbow-method k selection, and k-means clusters with their median
// entropy rows.
//
// Usage:
//
//	entropyclust [-scale 0.3] [-group prefix32|bgp|as] [-a 9] [-b 32] [-kmax 20] [-workers 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"expanse/internal/cluster"
	"expanse/internal/core"
	"expanse/internal/entropy"
)

func main() {
	scale := flag.Float64("scale", 0.3, "simulation scale")
	group := flag.String("group", "prefix32", "grouping: prefix32, bgp, or as")
	a := flag.Int("a", 9, "first nybble of the fingerprint (1-based)")
	b := flag.Int("b", 32, "last nybble of the fingerprint")
	kmax := flag.Int("kmax", 20, "maximum k for the elbow method")
	min := flag.Int("min", 0, "minimum addresses per group (0 = scale-adjusted default)")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Sim.Scale = *scale
	cfg.Workers = *workers
	p := core.New(cfg)
	p.Collect()
	// The grouping stage consumes the store's cached sorted view directly;
	// nothing is flattened or map-bucketed per grouping.
	sorted := p.Hitlist().Sorted()
	fmt.Printf("hitlist: %d addresses\n", len(sorted))

	threshold := *min
	if threshold <= 0 {
		threshold = cfg.GroupMin()
	}
	var groups []entropy.Group
	switch *group {
	case "prefix32":
		groups = entropy.ByPrefixLen(sorted, 32, threshold, *a, *b, p.Cfg.Workers)
	case "bgp":
		groups = entropy.ByBGPPrefix(sorted, p.World.Table, threshold, *a, *b, p.Cfg.Workers)
	case "as":
		groups = entropy.ByAS(sorted, p.World.Table, threshold, *a, *b, p.Cfg.Workers)
	default:
		fmt.Fprintf(os.Stderr, "unknown grouping %q\n", *group)
		os.Exit(2)
	}
	fmt.Printf("groups with >= %d addresses: %d\n", threshold, len(groups))
	if len(groups) == 0 {
		return
	}

	// One elbow sweep yields both the curve and the winning k-means run;
	// the chosen k is never re-run.
	vectors := entropy.Vectors(groups)
	res, curve := cluster.ChooseK(vectors, *kmax, 0x16c18, p.Cfg.Workers)
	fmt.Print("SSE(k):")
	for i, s := range curve {
		fmt.Printf(" k%d=%.2f", i+1, s)
	}
	fmt.Printf("\nelbow k = %d\n\n", res.K)

	for _, s := range cluster.Summarize(vectors, res) {
		fmt.Printf("cluster %d: %5.1f%% (%d networks)\n  median entropy F%d-%d:", s.ID, s.Share*100, s.Size, *a, *b)
		for _, h := range s.MedianEntropy {
			fmt.Printf(" %.2f", h)
		}
		fmt.Println()
	}
}
