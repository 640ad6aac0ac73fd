package apd

// Benchmarks of the columnar alias plane against the retained legacy
// baselines (legacy_ref_test.go). Picked up by the CI bench-smoke job;
// before/after numbers are recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"expanse/internal/ip6"
)

// BenchmarkHitlistCandidates compares candidate derivation: the
// run-boundary scan over the cached sorted view ("runscan"; the sort is
// amortized by the data plane, so the cached variant is the pipeline's
// real cost) vs the retired per-level map bucketing.
func BenchmarkHitlistCandidates(b *testing.B) {
	addrs := randomHitlist(rand.New(rand.NewSource(1)), 1500)
	sorted := append([]ip6.Addr(nil), addrs...)
	sortAddrs(sorted)
	b.Run("runscan-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			candidatesFromSorted(sorted, 100)
		}
	})
	b.Run("runscan-with-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HitlistCandidatesAddrs(addrs, 100)
		}
	})
	b.Run("legacy-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			legacyHitlistCandidates(addrs, 100)
		}
	})
}

// BenchmarkFilterSplit compares classifying a sorted hitlist: the
// chunk-parallel interval linear merge vs the retired per-address trie
// walk.
func BenchmarkFilterSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	verdicts := randomVerdicts(rng, 5000)
	f := NewFilter(verdictsOf(verdicts))
	ref := newLegacyTrieFilter(verdicts)
	sorted := make([]ip6.Addr, 1<<18)
	for i := range sorted {
		// Half inside verdict regions, half uniform.
		if i%2 == 0 {
			sorted[i] = ip6.AddrFromUint64(0x2001<<48|rng.Uint64()&0xff_ffff<<24, rng.Uint64())
		} else {
			sorted[i] = ip6.AddrFromUint64(rng.Uint64(), rng.Uint64())
		}
	}
	sortAddrs(sorted)
	b.Run("interval-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.SplitSorted(sorted, runtime.GOMAXPROCS(0))
		}
	})
	b.Run("interval-merge-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.SplitSorted(sorted, 1)
		}
	})
	b.Run("legacy-trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.Split(sorted)
		}
	})
}

// BenchmarkWindowMerge compares the Table 4 whole-window instability
// metric: chunk-parallel column scans vs the retired per-prefix map
// probes.
func BenchmarkWindowMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	verdicts := randomVerdicts(rng, 20000)
	prefixes := make([]ip6.Prefix, 0, len(verdicts))
	for p := range verdicts {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return ip6.ComparePrefix(prefixes[i], prefixes[j]) < 0 })
	days := randomDays(rng, prefixes, 14)
	var h History
	var ref legacyHistory
	for _, d := range days {
		h.Add(d)
		ref.Add(d)
	}
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.UnstablePrefixes(3)
		}
	})
	b.Run("legacy-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.UnstablePrefixes(3)
		}
	})
}

// BenchmarkCandidateTable compares freezing a candidate list with BGP
// duplicates appended: one sort of the entries numbering the prefixes
// ("sort-numbered") vs the retired prefix-keyed map plus a sort of the
// IDs ("map-ref", ref_test.go).
func BenchmarkCandidateTable(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cands := HitlistCandidatesAddrs(randomHitlist(rng, 20000), 100)
	for i, n := 0, len(cands); i < n/4; i++ {
		cands = append(cands, Candidate{Prefix: cands[rng.Intn(n)].Prefix})
	}
	b.Run("sort-numbered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewCandidateTable(cands)
		}
	})
	b.Run("map-ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newCandidateTableRef(cands)
		}
	})
}
