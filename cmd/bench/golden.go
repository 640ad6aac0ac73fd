package main

import (
	_ "embed"
	"encoding/json"
	"path/filepath"
	"strconv"
)

// goldenJSON pins, per workload and seed, the deterministic outputs of
// one repetition. A seed that is not pinned still has to satisfy the
// invariants the repetitions check themselves.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string]checks // workload → seed → checks

func loadGolden() goldenFile {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fail(err)
	}
	return g
}

func (g goldenFile) get(workload string, seed int64) (checks, bool) {
	c, ok := g[workload][strconv.FormatInt(seed, 10)]
	return c, ok
}

func (g goldenFile) set(workload string, seed int64, c checks) {
	if g[workload] == nil {
		g[workload] = map[string]checks{}
	}
	g[workload][strconv.FormatInt(seed, 10)] = c
}

func (g goldenFile) save() error {
	return writeJSON(filepath.Join("cmd", "bench", "golden.json"), g)
}
