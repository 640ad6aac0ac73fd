package expanse

// The benchmark harness: one sub-benchmark per entry of core.Reports,
// the paper's tables and figures in paper order. Each regenerates its
// experiment through the shared Lab (expensive pipeline stages are
// computed once and cached, exactly like the real system's daily
// artifacts) and prints the reproduced rows on its first iteration, so
//
//	go test -bench=. -benchmem
//
// emits the full evaluation (-bench Reports/table4 runs one report).
// Paper-vs-measured comparisons are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"expanse/internal/core"
)

var (
	labOnce sync.Once
	lab     *core.Lab
)

// benchLab returns the shared full-scale lab.
func benchLab() *core.Lab {
	labOnce.Do(func() {
		lab = core.NewLab(core.DefaultConfig())
	})
	return lab
}

// printed holds the IDs of the reports already printed. Sub-benchmarks
// run one at a time, so a plain map serves.
var printed = map[string]bool{}

// BenchmarkReports runs every report of the registry and prints each one
// once per process.
func BenchmarkReports(b *testing.B) {
	for _, e := range core.Reports {
		b.Run(e.ID, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = e.Run(benchLab())
			}
			if !printed[e.ID] {
				printed[e.ID] = true
				fmt.Println(rep.String())
			}
		})
	}
}

// BenchmarkSweepWorkers measures the concurrent scan engine's worker
// scaling on a five-protocol sweep of a small world's hitlist. Results
// are bit-identical across worker counts (see DESIGN.md); only the
// wall-clock changes.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.TestConfig()
			cfg.Workers = workers
			p := core.New(cfg)
			p.Collect()
			targets := p.Hitlist().Sorted()
			day := p.World.Horizon()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Sweep(targets, day)
			}
		})
	}
}
