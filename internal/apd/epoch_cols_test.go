package apd

import (
	"math/rand"
	"testing"

	"expanse/internal/ip6"
)

// TestWindowColumnsPinEpoch pins the epoch pipeline's column-snapshot
// contract: a day's DayColumn agrees with the per-prefix single-day
// merge, MergeColumns over WindowColumns reproduces MergedColumn at any
// worker count, and pinned snapshots stay stable — same merge result —
// after later days are appended to the live history.
func TestWindowColumnsPinEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	verdicts := randomVerdicts(rng, 40)
	prefixes := make([]ip6.Prefix, 0, len(verdicts))
	for p := range verdicts {
		prefixes = append(prefixes, p)
	}
	days := randomDays(rng, prefixes, 6)
	var h History
	for _, d := range days {
		h.Add(d)
	}
	nIDs := h.width()

	// Single-day column vs per-prefix window-1 merge.
	di := h.Len() - 1
	col := h.Column(di)
	if col.Width() != nIDs {
		t.Fatalf("Column width %d, want %d", col.Width(), nIDs)
	}
	for _, p := range prefixes {
		id, ok := h.table.ID(p)
		if !ok {
			continue
		}
		if got, want := col.Mask(id), h.MergedAt(p, di, 1); got != want {
			t.Fatalf("Column(%d).Mask(%v) = %04x, MergedAt = %04x", di, p, got, want)
		}
		// Probed marks presence in the day's probe set regardless of mask.
		if _, in := days[di][p]; col.Probed(id) != in {
			t.Fatalf("Column(%d).Probed(%v) = %v, day map has %v", di, p, col.Probed(id), in)
		}
	}

	// MergeColumns over pinned window snapshots == MergedColumn, any workers.
	type pin struct {
		di, w int
		cols  []DayColumn
		want  []BranchMask
	}
	var pins []pin
	for _, w := range []int{1, 3, 5} {
		for di := 0; di < h.Len(); di++ {
			cols := h.WindowColumns(di, w)
			want := h.MergedColumn(di, w, 1)
			for _, workers := range []int{1, 4, 16} {
				got := MergeColumns(cols, nIDs, workers)
				for id := range want {
					if got[id] != want[id] {
						t.Fatalf("di=%d w=%d workers=%d: MergeColumns[%d] = %04x, MergedColumn %04x",
							di, w, workers, id, got[id], want[id])
					}
				}
			}
			pins = append(pins, pin{di, w, cols, want})
		}
	}

	// Appending later days must not disturb any pinned snapshot.
	for _, d := range randomDays(rng, prefixes, 4) {
		h.Add(d)
	}
	for _, pn := range pins {
		got := MergeColumns(pn.cols, nIDs, 4)
		for id := range pn.want {
			if got[id] != pn.want[id] {
				t.Fatalf("di=%d w=%d: pinned snapshot moved after later Add", pn.di, pn.w)
			}
		}
	}
}
