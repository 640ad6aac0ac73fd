package main

import (
	"expanse/internal/core"
	"expanse/internal/netsim"
)

// workload is one set of generated inputs. The sizes are chosen so that
// one repetition (a fresh process: world, collect, the workload, the
// checks) takes 3–5 s on two cores and several repetitions fit in one
// measured run; the shapes are the ones ROADMAP item 2 names.
type workload struct {
	Name string
	Why  string
	Kind string // "days", "sweep" or "reports"

	Scale float64
	ASes  int // registry size beyond the named majors; 0 keeps the default

	// Kind "days".
	Days       int
	EpochSweep bool
	Resume     bool // checkpoint every day, then core.Resume from the last one

	// Kind "sweep": days of warm sweeping over the sorted hitlist, over a
	// seeded shuffle of it, and days of fingerprint pair probing.
	WarmDays, ShuffleDays, PairDays int
}

var workloads = []workload{
	{
		Name: "daily", Kind: "days", Scale: 0.25, Days: 14, EpochSweep: true,
		Why: "the canonical daily run: world, collect, 14 APD days each sealed with its five-protocol sweep; detector fan-out probing and the per-day curated sweep dominate",
	},
	{
		Name: "apd-long", Kind: "days", Scale: 0.125, Days: 63, Resume: true,
		Why: "same day loop with the seal sweep bypassed and 63 days of history, window, narrowing, checkpoints and a digest-verified Resume added; a seal-sweep gain must not show here",
	},
	{
		Name: "sweep", Kind: "sweep", Scale: 0.25, WarmDays: 20, ShuffleDays: 5, PairDays: 5,
		Why: "scan plane only, APD bypassed: one cold sweep, warm sweeps of the sorted hitlist, warm sweeps of the same addresses shuffled (cursor misses), fingerprint pairs",
	},
	{
		Name: "reports", Kind: "reports", Scale: 0.002, ASes: 1200,
		Why: "analysis plane the pipeline workloads never enter: all 30 paper reports (entropy, cluster, eip, sixgen, fingerprint, rdns, crowd, zesplot), text checksummed",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeed is the world seed every committed number was measured at.
var defaultSeed = netsim.DefaultConfig().Seed

// config generates the only input the program under test receives.
// Overlap 2 is the service's default depth; the traced run is serial.
func (w workload) config(seed int64, workers int, traced bool, snapDir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Sim.Seed = seed
	cfg.Sim.Scale = w.Scale
	if w.ASes > 0 {
		cfg.Sim.Registry.ASes = w.ASes
	}
	cfg.Workers = workers
	cfg.Overlap = 2
	if traced {
		cfg.Overlap = 1
	}
	cfg.EpochSweep = w.EpochSweep
	if w.Resume {
		cfg.SnapshotDir = snapDir
	}
	return cfg
}
