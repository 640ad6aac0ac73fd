package apd

import (
	"math/rand"
	"slices"
	"testing"

	"expanse/internal/ip6"
)

// buildHistory drives a history through a random observation sequence:
// day 0 probes the whole ID space, later days random narrowed subsets
// (some far below a quarter of it, some above), with duplicate IDs
// sprinkled in to exercise the OR-merge.
func buildHistory(t *testing.T, seed int64, nIDs, days int) *History {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := &History{}
	h.Bind(NewCandidateTable(testCands(nIDs)))
	for d := 0; d < days; d++ {
		var ids []int32
		if d == 0 {
			for i := 0; i < nIDs; i++ {
				ids = append(ids, int32(i))
			}
		} else {
			n := rng.Intn(nIDs/2) + 1
			if d%3 == 0 {
				n = rng.Intn(nIDs/20+1) + 1
			}
			for i := 0; i < n; i++ {
				ids = append(ids, int32(rng.Intn(nIDs)))
			}
			ids = append(ids, ids[0], ids[len(ids)/2])
		}
		masks := make([]BranchMask, len(ids))
		for i := range masks {
			masks[i] = BranchMask(rng.Intn(1 << 16))
		}
		h.AddIDs(ids, masks)
	}
	return h
}

// testCands returns n distinct /64 candidates; candidate i gets ID i.
func testCands(n int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{Prefix: ip6.PrefixFrom(ip6.AddrFromUint64(uint64(i)<<40, 0), 64)}
	}
	return cands
}

// TestDayColumnExportImport pins the snapshot codec contract: Export →
// ImportDayColumn must reproduce a column observation-for-observation.
func TestDayColumnExportImport(t *testing.T) {
	h := buildHistory(t, 313, 500, 7)
	for d := 0; d < h.Len(); d++ {
		orig := h.Column(d)
		width, ids, masks := orig.Export()
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("day %d: exported ids not strictly ascending at %d", d, i)
			}
		}
		back, err := ImportDayColumn(width, ids, masks)
		if err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
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

// TestHistoryRestore pins the resume path: a history rebuilt from a
// table plus exported column snapshots answers every query like the
// original.
func TestHistoryRestore(t *testing.T) {
	const nIDs, days = 400, 6
	h := buildHistory(t, 77, nIDs, days)
	table := NewCandidateTable(testCands(nIDs))

	cols := make([]DayColumn, h.Len())
	for d := range cols {
		var err error
		width, ids, masks := h.Column(d).Export()
		if cols[d], err = ImportDayColumn(width, ids, masks); err != nil {
			t.Fatal(err)
		}
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

// FuzzImportDayColumn pins ImportDayColumn against a naive map oracle:
// valid input (width >= 0, ids strictly ascending inside [0, width),
// one mask per id) round-trips through Export exactly and reads back
// through Mask, Probed, ProbedCount and MergeColumns as the map says;
// anything else returns an error and never panics. Ids are a start plus
// byte deltas, so most inputs are ascending and a zero delta or an
// overrun makes them invalid; mode drops or adds a mask.
func FuzzImportDayColumn(f *testing.F) {
	f.Add(int16(4), int16(0), []byte{1, 1, 2, 3}, []byte{0xff, 0xff, 1, 0, 0, 0x80}, uint8(0))
	f.Add(int16(4), int16(0), []byte{1, 1, 1, 6}, []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0}, uint8(0))
	f.Add(int16(100), int16(0), []byte{1, 1}, []byte{1, 0}, uint8(0))
	f.Add(int16(3000), int16(-1), []byte{1, 200, 0}, []byte{1, 0, 2, 0, 3, 0}, uint8(0))
	f.Add(int16(-5), int16(0), []byte{}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, w, start int16, deltas, maskBytes []byte, mode uint8) {
		width := int(w) % 4097
		ids := make([]int32, len(deltas))
		for i, d := range deltas {
			ids[i] = int32(start) + int32(d)
			if i > 0 {
				ids[i] = ids[i-1] + int32(d)
			}
		}
		masks := make([]BranchMask, len(ids))
		for i := range masks {
			if 2*i+1 < len(maskBytes) {
				masks[i] = BranchMask(maskBytes[2*i]) | BranchMask(maskBytes[2*i+1])<<8
			}
		}
		switch mode % 4 {
		case 1:
			if len(masks) > 0 {
				masks = masks[:len(masks)-1]
			}
		case 2:
			masks = append(masks, 1)
		}

		valid := width >= 0 && len(ids) == len(masks)
		oracle := map[int32]BranchMask{}
		for i, id := range ids {
			if id < 0 || int(id) >= width || i > 0 && id <= ids[i-1] {
				valid = false
			}
			if i < len(masks) {
				oracle[id] = masks[i]
			}
		}
		col, err := ImportDayColumn(width, ids, masks)
		if (err == nil) != valid {
			t.Fatalf("width %d ids %v masks %d: err %v, valid %v", width, ids, len(masks), err, valid)
		}
		if !valid {
			return
		}
		gw, gids, gmasks := col.Export()
		if gw != width || col.Width() != width || !slices.Equal(gids, ids) || !slices.Equal(gmasks, masks) {
			t.Fatalf("round trip: (%d, %v, %v), imported (%d, %v, %v)", gw, gids, gmasks, width, ids, masks)
		}
		if col.ProbedCount() != len(oracle) {
			t.Fatalf("ProbedCount %d, oracle %d", col.ProbedCount(), len(oracle))
		}
		for id := int32(0); id < int32(width)+70; id++ {
			m, in := oracle[id]
			if col.Mask(id) != m || col.Probed(id) != in {
				t.Fatalf("id %d: (%04x, %v), oracle (%04x, %v)", id, col.Mask(id), col.Probed(id), m, in)
			}
		}
		for _, workers := range []int{1, 3} {
			merged := MergeColumns([]DayColumn{col, {}, col}, width+3, workers)
			for id, m := range merged {
				if m != oracle[int32(id)] {
					t.Fatalf("MergeColumns workers %d id %d: %04x, oracle %04x", workers, id, m, oracle[int32(id)])
				}
			}
		}
	})
}
