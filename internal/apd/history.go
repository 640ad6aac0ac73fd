package apd

import (
	"fmt"
	"sync/atomic"

	"expanse/internal/par"
	"expanse/internal/wire"
)

// History accumulates daily branch masks for the sliding window (§5.2) in
// columnar form: every distinct prefix has a stable integer ID — the
// bound CandidateTable's — and each day stores one []BranchMask column
// indexed by ID plus a presence bitmap marking the IDs actually probed
// that day (later days are narrowed to near-aliased candidates). Window
// evaluation is therefore array OR-scans over the day columns
// (MergeColumns over WindowColumns, ORDayInto, UnstablePrefixesWorkers)
// instead of per-prefix map probes, fanned out over chunk-parallel
// workers. The map-keyed generation of this API (Add, MergedAt,
// AliasedAt, …) survives in ref_test.go as the test oracle.
//
// Bind adopts a table's ID space; the zero value is an empty history.
type History struct {
	table *CandidateTable
	days  []DayColumn
}

// width returns the ID-space width (0 before Bind).
func (h *History) width() int {
	if h.table == nil {
		return 0
	}
	return h.table.NumIDs()
}

// makeColumn builds a day column of the given width from (id, mask)
// observations, OR-merging entries that share an ID (duplicate candidate
// prefixes). The result is a pure function of the observation multiset —
// input order never shows.
func makeColumn(ids []int32, masks []BranchMask, width int) DayColumn {
	col := DayColumn{masks: make([]BranchMask, width), present: wire.NewBitset(width)}
	for i, id := range ids {
		col.masks[id] |= masks[i]
		col.present.Set(int(id))
	}
	return col
}

// Bind adopts the table's prefix-ID assignment, so day columns recorded
// via AddIDs index directly by candidate ID. The table is shared, not
// copied: it is frozen. Bind must be called before any day is added and
// at most once.
func (h *History) Bind(t *CandidateTable) {
	if len(h.days) > 0 || h.table != nil {
		panic("apd: History.Bind on a non-empty history")
	}
	h.table = t
}

// AddIDs appends one day's observation given pre-resolved prefix IDs:
// masks[i] is the branch mask observed for ids[i]. Entries sharing an ID
// (duplicate candidate prefixes) OR-merge.
func (h *History) AddIDs(ids []int32, masks []BranchMask) {
	if len(ids) != len(masks) {
		panic("apd: History.AddIDs length mismatch")
	}
	h.days = append(h.days, makeColumn(ids, masks, h.width()))
}

// Len returns the number of recorded days.
func (h *History) Len() int { return len(h.days) }

// Restore rebuilds a history from a candidate table and previously
// recorded column snapshots (oldest first) — the resume path of the
// snapshot plane. Equivalent to Bind followed by replaying the original
// AddIDs sequence: every scan over the restored history returns exactly
// what it returned over the live one. Must be called on an empty
// history.
func (h *History) Restore(t *CandidateTable, cols []DayColumn) {
	h.Bind(t)
	h.days = append(h.days, cols...)
}

// MemBytes estimates the history's resident footprint, split into the
// day columns and the bound table's prefix index. The split drives the
// alias-plane rows of the bytes-per-address audit.
func (h *History) MemBytes() (total, cols, index int64) {
	for i := range h.days {
		d := &h.days[i]
		cols += int64(cap(d.masks))*2 + int64(cap(d.present))*8
	}
	// Prefix = Addr (16B) + length byte, padded to 24, plus its 4-byte
	// slot in order.
	if t := h.table; t != nil {
		index = int64(cap(t.prefixes))*24 + int64(cap(t.order))*4
	}
	return cols + index, cols, index
}

// DayColumn is one recorded day's observation, immutable once appended:
// masks[id] is the branch mask of prefix id (zero when absent) and
// present marks the IDs probed that day. The column is sized to the ID
// space at the time of recording; IDs registered later read as absent
// through the bounds checks in Mask, Probed and the scans. A day's column
// is write-once — AddIDs fills it completely before appending and nothing
// mutates it afterwards — so a copy is a few shared slice headers, safe
// to read from any goroutine while later days are still being appended
// to the live history. This is the per-day handoff unit of the epoch
// pipeline: a published epoch pins its day's column (and the window's
// columns) without holding a reference to the mutable history, and the
// snapshot plane (internal/snap) serializes columns through
// Export/ImportDayColumn.
type DayColumn struct {
	masks   []BranchMask
	present wire.Bitset
}

// Width returns the ID-space width the column was recorded at.
func (c DayColumn) Width() int { return len(c.masks) }

// Mask returns id's branch mask that day (zero when absent).
func (c DayColumn) Mask(id int32) BranchMask {
	if int(id) < len(c.masks) {
		return c.masks[id]
	}
	return 0
}

// Probed reports whether id was probed that day.
func (c DayColumn) Probed(id int32) bool { return c.present.Get(int(id)) }

// ProbedCount returns how many distinct IDs were probed that day.
func (c DayColumn) ProbedCount() int { return c.present.Count() }

// orInto ORs the column's masks into dst for the ID range [lo, hi).
func (c DayColumn) orInto(dst []BranchMask, lo, hi int) {
	m := c.masks
	if hi > len(m) {
		hi = len(m)
	}
	for id := lo; id < hi; id++ {
		dst[id] |= m[id]
	}
}

// Export returns the column's probed IDs in ascending order with their
// (OR-merged) masks, plus the recorded ID-space width — the form the
// snapshot codec writes. Both slices are freshly allocated.
func (c DayColumn) Export() (width int, ids []int32, masks []BranchMask) {
	n := c.ProbedCount()
	ids = make([]int32, 0, n)
	masks = make([]BranchMask, 0, n)
	for id := range c.masks {
		if c.present.Get(id) {
			ids = append(ids, int32(id))
			masks = append(masks, c.masks[id])
		}
	}
	return len(c.masks), ids, masks
}

// ImportDayColumn rebuilds a column from its exported form. Mask, Probed
// and every scan over the imported column behave identically to the
// original. It returns an error unless width is non-negative, ids are
// strictly ascending inside [0, width) and masks matches ids in length —
// the shape Export writes.
func ImportDayColumn(width int, ids []int32, masks []BranchMask) (DayColumn, error) {
	if width < 0 {
		return DayColumn{}, fmt.Errorf("apd: day column width %d", width)
	}
	if len(ids) != len(masks) {
		return DayColumn{}, fmt.Errorf("apd: day column has %d ids for %d masks", len(ids), len(masks))
	}
	for i, id := range ids {
		if id < 0 || int(id) >= width {
			return DayColumn{}, fmt.Errorf("apd: day column id %d outside width %d", id, width)
		}
		if i > 0 && id <= ids[i-1] {
			return DayColumn{}, fmt.Errorf("apd: day column ids not strictly ascending at %d", i)
		}
	}
	return makeColumn(ids, masks, width), nil
}

// Column returns day di's immutable column snapshot.
func (h *History) Column(di int) DayColumn { return h.days[di] }

// WindowColumns returns the column snapshots of the sliding window of
// `window` days TOTAL ending at di (window below 1 clamps to 1), oldest
// first. Together with MergeColumns this makes the window merge a pure
// function of immutable snapshots, so a pipeline can evaluate day N-1's
// window while day N is being probed and appended.
func (h *History) WindowColumns(di, window int) []DayColumn {
	if window < 1 {
		window = 1
	}
	lo := windowStart(di, window)
	out := make([]DayColumn, 0, di-lo+1)
	for i := lo; i <= di && i < len(h.days); i++ {
		out = append(out, h.Column(i))
	}
	return out
}

// MergeColumns OR-merges day-column snapshots into a width-nIDs mask
// array — mask[id] is the union of id's branch masks over the columns —
// as a chunk-parallel array scan; epoch sealing applies it to a draft's
// pinned window columns. The result is identical for every worker count.
func MergeColumns(cols []DayColumn, nIDs, workers int) []BranchMask {
	out := make([]BranchMask, nIDs)
	par.Ranges(nIDs, workers, chunkFloor, 1, func(_, clo, chi int) {
		for i := range cols {
			cols[i].orInto(out, clo, chi)
		}
	})
	return out
}

// windowStart returns the first day index of the window ending at di
// (window already clamped to >= 1).
func windowStart(di, window int) int {
	lo := di - window + 1
	if lo < 0 {
		lo = 0
	}
	return lo
}

// ORDayInto ORs day di's column into dst (indexed by prefix ID), the
// running-mask update of the pipeline's candidate narrowing, chunk-
// parallel over disjoint ID ranges.
func (h *History) ORDayInto(di int, dst []BranchMask, workers int) {
	col := h.days[di]
	n := col.Width()
	if n > len(dst) {
		n = len(dst)
	}
	par.Ranges(n, workers, chunkFloor, 1, func(_, lo, hi int) {
		col.orInto(dst, lo, hi)
	})
}

// UnstablePrefixesWorkers counts prefixes whose aliased classification
// changes across the recorded days when using the given sliding window —
// the metric of Table 4. Evaluation starts once the window is full, i.e.
// at day index window-1 (window < 1 is clamped to 1, a single-day
// window). The scan is chunk-parallel over the ID space with the given
// worker cap: each prefix's flip count is an independent walk down its
// mask column, and the per-chunk counts sum to the same total for every
// worker count.
func (h *History) UnstablePrefixesWorkers(window, workers int) int {
	if window < 1 {
		window = 1
	}
	start := window - 1
	var total atomic.Int64
	par.Ranges(h.width(), workers, chunkFloor, 1, func(_, lo, hi int) {
		unstable := 0
		for id := lo; id < hi; id++ {
			var prev, cur bool
			flips := 0
			for di := start; di < len(h.days); di++ {
				var m BranchMask
				for i := windowStart(di, window); i <= di; i++ {
					m |= h.days[i].Mask(int32(id))
				}
				cur = m == AllBranches
				if di > start && cur != prev {
					flips++
				}
				prev = cur
			}
			if flips > 0 {
				unstable++
			}
		}
		total.Add(int64(unstable))
	})
	return int(total.Load())
}

// chunkFloor is the minimum per-worker chunk size of the columnar scans:
// below this, goroutine fan-out costs more than the scan itself.
const chunkFloor = 1024
