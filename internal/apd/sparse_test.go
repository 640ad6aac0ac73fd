package apd

import (
	"math/rand"
	"testing"

	"expanse/internal/ip6"
)

// buildHistories drives a production history (sparse columns where they
// pay) and an all-dense reference — its columns appended in-package
// through denseColumn, bypassing the layout choice — through an identical
// observation sequence: day 0 probes the whole ID space, later days
// random narrowed subsets (some far below the sparse threshold, some
// above), with duplicate IDs sprinkled in to exercise the OR-merge.
func buildHistories(t *testing.T, seed int64, nIDs, days int) (h, ref *History) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cands := make([]Candidate, nIDs)
	for i := range cands {
		cands[i] = Candidate{Prefix: ip6.PrefixFrom(ip6.AddrFromUint64(uint64(i)<<40, 0), 64)}
	}
	table := NewCandidateTable(cands)
	h, ref = &History{}, &History{}
	h.Bind(table)
	ref.Bind(table)
	for d := 0; d < days; d++ {
		var ids []int32
		if d == 0 {
			for i := 0; i < nIDs; i++ {
				ids = append(ids, int32(i))
			}
		} else {
			n := rng.Intn(nIDs/2) + 1
			if d%3 == 0 {
				n = rng.Intn(nIDs/20+1) + 1 // far below the sparse threshold
			}
			for i := 0; i < n; i++ {
				ids = append(ids, int32(rng.Intn(nIDs)))
			}
			// Duplicates must OR-merge identically in both layouts.
			ids = append(ids, ids[0], ids[len(ids)/2])
		}
		masks := make([]BranchMask, len(ids))
		for i := range masks {
			masks[i] = BranchMask(rng.Intn(1 << 16))
		}
		h.AddIDs(ids, masks)
		ref.days = append(ref.days, denseColumn(ids, masks, ref.width()))
	}
	return h, ref
}

// TestSparseColumnsMatchDense pins that the sparse day-column layout is
// observation-equivalent to the dense reference across the whole History
// API: per-ID masks and presence, window merges at several widths and
// worker counts, aliased sets, and the Table 4 instability metric.
func TestSparseColumnsMatchDense(t *testing.T) {
	const nIDs, days = 700, 9
	h, ref := buildHistories(t, 101, nIDs, days)

	sparseSeen := false
	for d := 0; d < days; d++ {
		if _, ids, _ := h.Column(d).Export(); len(ids)*4 <= nIDs {
			sparseSeen = true
		}
	}
	if !sparseSeen {
		t.Fatal("workload never produced a sparse column; test is vacuous")
	}

	for d := 0; d < days; d++ {
		hc, rc := h.Column(d), ref.Column(d)
		if hc.Width() != rc.Width() || hc.ProbedCount() != rc.ProbedCount() {
			t.Fatalf("day %d: width/count diverge: (%d,%d) vs (%d,%d)",
				d, hc.Width(), hc.ProbedCount(), rc.Width(), rc.ProbedCount())
		}
		for id := int32(0); id < int32(nIDs); id++ {
			if hc.Mask(id) != rc.Mask(id) || hc.Probed(id) != rc.Probed(id) {
				t.Fatalf("day %d id %d: sparse (%04x,%v) vs dense (%04x,%v)",
					d, id, hc.Mask(id), hc.Probed(id), rc.Mask(id), rc.Probed(id))
			}
		}
	}

	for _, window := range []int{1, 3, 5} {
		for _, workers := range []int{1, 4, 16} {
			for d := 0; d < days; d++ {
				got := h.MergedColumn(d, window, workers)
				want := ref.MergedColumn(d, window, 1)
				for id := range got {
					if got[id] != want[id] {
						t.Fatalf("MergedColumn(d=%d w=%d workers=%d)[%d]: %04x vs %04x",
							d, window, workers, id, got[id], want[id])
					}
				}
				ga, wa := h.AliasedAtWorkers(d, window, workers), ref.AliasedAtWorkers(d, window, 1)
				if len(ga) != len(wa) {
					t.Fatalf("AliasedAt(d=%d w=%d): %d vs %d prefixes", d, window, len(ga), len(wa))
				}
				for p := range wa {
					if !ga[p] {
						t.Fatalf("AliasedAt(d=%d w=%d): missing %v", d, window, p)
					}
				}
			}
			if g, w := h.UnstablePrefixesWorkers(window, workers), ref.UnstablePrefixesWorkers(window, 1); g != w {
				t.Fatalf("UnstablePrefixes(w=%d workers=%d): %d vs %d", window, workers, g, w)
			}
		}
	}

	// ORDayInto equivalence — the pipeline's running near-mask update.
	for _, workers := range []int{1, 8} {
		got := make([]BranchMask, nIDs)
		want := make([]BranchMask, nIDs)
		for d := 0; d < days; d++ {
			h.ORDayInto(d, got, workers)
			ref.ORDayInto(d, want, 1)
		}
		for id := range got {
			if got[id] != want[id] {
				t.Fatalf("ORDayInto workers=%d id=%d: %04x vs %04x", workers, id, got[id], want[id])
			}
		}
	}
}

// TestDayColumnExportImport pins the snapshot codec contract: Export →
// ImportDayColumn must reproduce a column observation-for-observation,
// for both layouts.
func TestDayColumnExportImport(t *testing.T) {
	h, ref := buildHistories(t, 313, 500, 7)
	for _, src := range []*History{h, ref} {
		for d := 0; d < src.Len(); d++ {
			orig := src.Column(d)
			width, ids, masks := orig.Export()
			for i := 1; i < len(ids); i++ {
				if ids[i-1] >= ids[i] {
					t.Fatalf("day %d: exported ids not strictly ascending at %d", d, i)
				}
			}
			back := ImportDayColumn(width, ids, masks)
			if back.Width() != orig.Width() || back.ProbedCount() != orig.ProbedCount() {
				t.Fatalf("day %d: round-trip width/count diverge", d)
			}
			for id := int32(0); id < int32(width); id++ {
				if back.Mask(id) != orig.Mask(id) || back.Probed(id) != orig.Probed(id) {
					t.Fatalf("day %d id %d: round-trip diverged", d, id)
				}
			}
		}
	}
}

// TestHistoryRestore pins the resume path: a history rebuilt from a
// table plus exported column snapshots answers every query like the
// original.
func TestHistoryRestore(t *testing.T) {
	const nIDs, days = 400, 6
	h, _ := buildHistories(t, 77, nIDs, days)
	cands := make([]Candidate, nIDs)
	for i := range cands {
		cands[i] = Candidate{Prefix: ip6.PrefixFrom(ip6.AddrFromUint64(uint64(i)<<40, 0), 64)}
	}
	table := NewCandidateTable(cands)

	cols := make([]DayColumn, h.Len())
	for d := range cols {
		width, ids, masks := h.Column(d).Export()
		cols[d] = ImportDayColumn(width, ids, masks)
	}
	var re History
	re.Restore(table, cols)
	if re.Len() != h.Len() {
		t.Fatalf("restored Len = %d, want %d", re.Len(), h.Len())
	}
	for _, window := range []int{1, 3} {
		for d := 0; d < days; d++ {
			got := re.MergedColumn(d, window, 4)
			want := h.MergedColumn(d, window, 1)
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("restored MergedColumn(d=%d w=%d)[%d] diverged", d, window, id)
				}
			}
		}
		if g, w := re.UnstablePrefixesWorkers(window, 4), h.UnstablePrefixesWorkers(window, 1); g != w {
			t.Fatalf("restored UnstablePrefixes(w=%d): %d vs %d", window, g, w)
		}
	}
}
