package apd

import (
	"sort"
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
	days  []dayColumn
}

// width returns the ID-space width (0 before Bind).
func (h *History) width() int {
	if h.table == nil {
		return 0
	}
	return h.table.NumIDs()
}

// dayColumn is one day's observation in one of two layouts, chosen per
// day by how much of the ID space was probed:
//
//   - dense (masks != nil): masks[id] is the branch mask of prefix id
//     (zero when absent), present marks the probed IDs. Day 0 probes the
//     whole candidate universe, so its column is dense.
//   - sparse (masks == nil): ids lists the probed IDs ascending with
//     their masks in sm. Narrowed days probe a few near-aliased
//     candidates out of a candidate universe that grows with the
//     hitlist, so a dense 2-byte-per-ID column per day dominated the
//     alias plane's footprint at scale — the sparse form costs 6 bytes
//     per PROBED id instead of 2.125 bytes per REGISTERED id.
//
// Columns are sized to the ID space at the time of recording (width);
// IDs registered later read as absent via the bounds checks in the
// scans. Both layouts are immutable once appended.
type dayColumn struct {
	masks   []BranchMask
	present wire.Bitset
	ids     []int32
	sm      []BranchMask
	width   int
}

// sparseWorthIt decides the layout: sparse entries cost 6 bytes against
// a dense column's ~2.125 bytes per ID; the ×4 margin keeps the scans'
// binary searches off columns that are only moderately narrowed.
func sparseWorthIt(probed, width int) bool { return probed*4 <= width }

// mask returns id's branch mask that day (zero when absent).
func (c *dayColumn) mask(id int32) BranchMask {
	if c.masks != nil {
		if int(id) < len(c.masks) {
			return c.masks[id]
		}
		return 0
	}
	i := sort.Search(len(c.ids), func(k int) bool { return c.ids[k] >= id })
	if i < len(c.ids) && c.ids[i] == id {
		return c.sm[i]
	}
	return 0
}

// probed reports whether id was probed that day.
func (c *dayColumn) probed(id int32) bool {
	if c.masks != nil {
		return c.present.Get(int(id))
	}
	i := sort.Search(len(c.ids), func(k int) bool { return c.ids[k] >= id })
	return i < len(c.ids) && c.ids[i] == id
}

// orInto ORs the column's masks into dst for the ID range [lo, hi).
func (c *dayColumn) orInto(dst []BranchMask, lo, hi int) {
	if c.masks != nil {
		m := c.masks
		if hi > len(m) {
			hi = len(m)
		}
		for id := lo; id < hi; id++ {
			dst[id] |= m[id]
		}
		return
	}
	k := sort.Search(len(c.ids), func(i int) bool { return int(c.ids[i]) >= lo })
	for ; k < len(c.ids) && int(c.ids[k]) < hi; k++ {
		dst[c.ids[k]] |= c.sm[k]
	}
}

// makeColumn builds a day column from (id, mask) observations, OR-merging
// entries that share an ID (duplicate candidate prefixes), in the layout
// sparseWorthIt picks for the probed count. The result is a pure function
// of the observation multiset — input order never shows.
func makeColumn(ids []int32, masks []BranchMask, width int) dayColumn {
	if !sparseWorthIt(len(ids), width) {
		return denseColumn(ids, masks, width)
	}
	// Sort (id, mask) pairs by ID and OR-merge duplicates.
	ord := make([]int, len(ids))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return ids[ord[a]] < ids[ord[b]] })
	sids := make([]int32, 0, len(ids))
	sm := make([]BranchMask, 0, len(ids))
	for _, i := range ord {
		if n := len(sids); n > 0 && sids[n-1] == ids[i] {
			sm[n-1] |= masks[i]
			continue
		}
		sids = append(sids, ids[i])
		sm = append(sm, masks[i])
	}
	return dayColumn{ids: sids, sm: sm, width: width}
}

// denseColumn is makeColumn's dense layout.
func denseColumn(ids []int32, masks []BranchMask, width int) dayColumn {
	col := dayColumn{masks: make([]BranchMask, width), present: wire.NewBitset(width), width: width}
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
	for _, c := range cols {
		h.days = append(h.days, c.col)
	}
}

// MemBytes estimates the history's resident footprint, split into the
// day columns (dense vs sparse parts) and the bound table's prefix
// index. The split drives the alias-plane rows of the bytes-per-address
// audit.
func (h *History) MemBytes() (total, denseCols, sparseCols, index int64) {
	for i := range h.days {
		d := &h.days[i]
		denseCols += int64(cap(d.masks))*2 + int64(cap(d.present))*8
		sparseCols += int64(cap(d.ids))*4 + int64(cap(d.sm))*2
	}
	// Prefix = Addr (16B) + length byte, padded to 24; the id map costs
	// its 24-byte key + 4-byte value plus bucket overhead (~40B/entry).
	if t := h.table; t != nil {
		index = int64(cap(t.prefixes))*24 + int64(len(t.ids))*40
	}
	return denseCols + sparseCols + index, denseCols, sparseCols, index
}

// DayColumn is an immutable snapshot of one recorded day's observation
// column — dense (per-ID masks plus presence bitmap) or sparse (probed
// IDs with their masks), matching the live history's layout for that
// day. A day's column is write-once — AddIDs fills it completely
// before appending and nothing mutates it afterwards — so the snapshot
// is a few shared slice headers (copy-on-publish without the copy),
// safe to read from any goroutine while later days are still being
// appended to the live history. This is the per-day handoff unit of the
// epoch pipeline: a published epoch pins its day's column (and the
// window's columns) without holding a reference to the mutable history,
// and the snapshot plane (internal/snap) serializes columns through
// Export/ImportDayColumn.
type DayColumn struct {
	col dayColumn
}

// Width returns the ID-space width the column was recorded at. IDs
// registered after the day read as absent.
func (c DayColumn) Width() int { return c.col.width }

// Mask returns id's branch mask that day (zero when absent).
func (c DayColumn) Mask(id int32) BranchMask { return c.col.mask(id) }

// Probed reports whether id was probed that day.
func (c DayColumn) Probed(id int32) bool { return c.col.probed(id) }

// ProbedCount returns how many distinct IDs were probed that day.
func (c DayColumn) ProbedCount() int {
	if c.col.masks == nil {
		return len(c.col.ids)
	}
	return c.col.present.Count()
}

// Export returns the column's probed IDs in ascending order with their
// (OR-merged) masks, plus the recorded ID-space width — the canonical
// layout-independent form the snapshot codec writes. Both slices are
// freshly allocated.
func (c DayColumn) Export() (width int, ids []int32, masks []BranchMask) {
	if c.col.masks == nil {
		return c.col.width, append([]int32(nil), c.col.ids...), append([]BranchMask(nil), c.col.sm...)
	}
	n := c.ProbedCount()
	ids = make([]int32, 0, n)
	masks = make([]BranchMask, 0, n)
	for id := 0; id < len(c.col.masks); id++ {
		if c.col.present.Get(id) {
			ids = append(ids, int32(id))
			masks = append(masks, c.col.masks[id])
		}
	}
	return c.col.width, ids, masks
}

// ImportDayColumn rebuilds a column snapshot from its exported form,
// picking the layout the live history would have used. Mask, Probed and
// every scan over the imported column behave identically to the
// original — representation is a pure memory decision.
func ImportDayColumn(width int, ids []int32, masks []BranchMask) DayColumn {
	return DayColumn{col: makeColumn(ids, masks, width)}
}

// Column returns day di's immutable column snapshot.
func (h *History) Column(di int) DayColumn {
	return DayColumn{col: h.days[di]}
}

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
			cols[i].col.orInto(out, clo, chi)
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
	col := &h.days[di]
	n := col.width
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
					m |= h.days[i].mask(int32(id))
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
