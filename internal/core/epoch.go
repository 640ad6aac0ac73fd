package core

import (
	"expanse/internal/apd"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/probe"
	"expanse/internal/sources"
)

// Epoch is one published day of the daily hitlist service: an immutable,
// cheaply-shareable snapshot of everything the day's consumers read.
// The publish point is atomic (Pipeline.publish swaps an RCU pointer),
// so a reader that obtains an epoch — via Pipeline.Latest or a
// RunDaysFunc callback — sees a fully-built, internally-consistent view
// forever: the hitlist pinned at its sorted mutation epoch
// (ip6.FrozenView), the
// interval-compiled alias filter, the verdict column, the day's
// probed candidates with their raw scan masks, the day's history column
// plus the sliding window it was judged under, and (when the pipeline
// runs with EpochSweep) the day's responsiveness sweep of the curated
// targets.
//
// All exported fields are read-only after publish. The clean/aliased
// split of the hitlist is memoized per epoch (logically immutable —
// computing it twice yields identical bytes), so N concurrent consumers
// of one epoch pay for one chunk-parallel interval merge.
type Epoch struct {
	// Index is the 0-based APD day index — epoch K is the K+1-th
	// published day since the candidate universe was frozen.
	Index int
	// Day is the absolute simulated day the epoch was probed on.
	Day int
	// Hitlist pins the sorted hitlist view the epoch was published
	// against. Later mutations of the live store are invisible here.
	Hitlist ip6.FrozenView
	// Filter is the day's interval-compiled longest-prefix-match alias
	// filter (never nil on a published epoch).
	Filter *apd.Filter
	// Verdicts is the day's verdict column: each distinct prefix probed
	// this day, in (address, length) order, with its window-merged
	// aliased verdict. Read-only.
	Verdicts apd.Verdicts
	// Candidates is the day's probed candidate subset in probe order
	// (day 0: the full universe; later days: the near-aliased narrowing),
	// and Probed its raw per-entry branch masks — the day's scan columns
	// as they came off the wire, before duplicate prefixes OR-merge in
	// the history. Probed[i] belongs to Candidates[i].
	Candidates []apd.Candidate
	Probed     []apd.BranchMask
	// Column is the day's appended history column; Window holds the
	// sliding window's column snapshots ending at this day (oldest
	// first); Merged is the window-merged mask per candidate-table ID.
	Column apd.DayColumn
	Window []apd.DayColumn
	Merged []apd.BranchMask
	// Scan is the day's five-protocol sweep over the epoch's clean
	// targets — nil unless the pipeline runs with Config.EpochSweep.
	Scan *Scan

	workers int
	split   memo[hitlistSplit]
}

// hitlistSplit is an epoch's clean/aliased partition of its hitlist.
type hitlistSplit struct {
	clean, aliased []ip6.Addr
	bits           []bool
}

// Split returns the memoized clean/aliased partition of the epoch's
// hitlist under the epoch's filter, plus the raw per-address
// classification aligned with Hitlist.Sorted(). All slices are shared
// between callers: read-only.
func (e *Epoch) Split() (clean, aliased []ip6.Addr, bits []bool) {
	sp := e.split.get(func() (sp hitlistSplit) {
		sp.clean, sp.aliased, sp.bits = e.Filter.SplitSorted(e.Hitlist.Sorted(), e.workers)
		return sp
	})
	return sp.clean, sp.aliased, sp.bits
}

// CleanTargets returns the epoch's curated hitlist — the pinned sorted
// view minus aliased addresses. Shared, read-only.
func (e *Epoch) CleanTargets() []ip6.Addr {
	clean, _, _ := e.Split()
	return clean
}

// IsAliased reports whether addr falls under an aliased prefix per this
// epoch's filter.
func (e *Epoch) IsAliased(addr ip6.Addr) bool { return e.Filter.IsAliased(addr) }

// EpochDraft carries one probed day from the probe chain to the seal
// stage: the day's candidate subset, its raw scan masks, and pinned
// window-column snapshots. Every field is immutable once the draft is
// returned — later ProbeDay calls build fresh narrowing slices and
// append fresh history columns — which is exactly what lets Seal run
// concurrently with subsequent probing.
type EpochDraft struct {
	index, day int
	cands      []apd.Candidate
	candIDs    []int32
	flat       []apd.BranchMask
	column     apd.DayColumn
	window     []apd.DayColumn
	table      *apd.CandidateTable
}

// Index returns the draft's 0-based APD day index.
func (d *EpochDraft) Index() int { return d.index }

// EpochBuilder owns all the mutable state of the day loop: the frozen
// candidate universe, the currently-probed (narrowed) candidate subset
// with its fan-out target column, the columnar day history, and the
// running near-aliased masks. The contract splits each day in two:
//
//   - ProbeDay (the probe chain) mutates: it narrows candidates, probes
//     the day's fan-out targets, appends the history column and updates
//     the running masks. Calls must come from one goroutine, in day
//     order.
//   - Seal (the publish side) only reads immutable draft snapshots and
//     the post-collection hitlist, so any number of Seal calls may run
//     concurrently with each other and with later ProbeDay calls.
//
// The day orchestrator (sched.go) pipelines the two.
type EpochBuilder struct {
	cfg      Config
	world    *netsim.Internet
	store    *sources.Store
	detector *apd.Detector
	scanner  *probe.Scanner

	table   *apd.CandidateTable
	cands   []apd.Candidate
	candIDs []int32
	// fan is the probe column: apd.Branches fan-out targets per current
	// candidate, parallel to cands/candIDs. Candidates are re-probed
	// daily with the same deterministic targets (§5.2), so the RNG draws
	// per prefix are paid once: the first ProbeDay after bind fills it (a
	// Resume replays its narrowing without it) and narrow compacts it.
	fan      []ip6.Addr
	hist     apd.History
	nearMask []apd.BranchMask
}

// Days returns how many APD days have been probed so far.
func (b *EpochBuilder) Days() int { return b.hist.Len() }

// History exposes the builder's live observation history — the one
// history accessor of the pipeline. Callers must not read it concurrently
// with ProbeDay; published epochs carry immutable column snapshots for
// that.
func (b *EpochBuilder) History() *apd.History { return &b.hist }

// bind freezes the candidate universe: day 0 probes every entry, and the
// running near-aliased masks start empty. The caller binds or restores
// the history against the same table.
func (b *EpochBuilder) bind(table *apd.CandidateTable) {
	b.table = table
	b.cands = table.Candidates()
	b.candIDs = make([]int32, len(b.cands))
	for i := range b.cands {
		b.candIDs[i] = table.EntryID(i)
	}
	b.nearMask = make([]apd.BranchMask, table.NumIDs())
}

// narrow keeps the candidates whose running mask is near aliased (>= 12
// branches). Drafts share the candidate slices and never write them, so a
// day that drops nothing — every day once the set has settled — keeps
// yesterday's slices and fan-out column as they are. A day that drops
// some gets fresh slices at exact size: the previous day's draft keeps
// the old ones, so sealed-but-unpublished epochs never see this
// mutation. The fan-out column no draft references, so it compacts in
// place (the write index never passes the read index) and a day
// allocates nothing for it.
func (b *EpochBuilder) narrow() {
	near := func(i int) bool { return b.nearMask[b.candIDs[i]].Count() >= 12 }
	kept := 0
	for i := range b.cands {
		if near(i) {
			kept++
		}
	}
	if kept == len(b.cands) {
		return
	}
	narrow := make([]apd.Candidate, 0, kept)
	narrowIDs := make([]int32, 0, kept)
	fan := b.fan[:0]
	for i, c := range b.cands {
		if near(i) {
			narrow = append(narrow, c)
			narrowIDs = append(narrowIDs, b.candIDs[i])
			if b.fan != nil {
				fan = append(fan, b.fan[i*apd.Branches:][:apd.Branches]...)
			}
		}
	}
	b.cands, b.candIDs, b.fan = narrow, narrowIDs, fan
}

// draft snapshots history day di — probed on absolute day `day` over the
// builder's current candidate subset, with raw masks flat — into an
// immutable EpochDraft.
func (b *EpochBuilder) draft(di, day int, flat []apd.BranchMask) *EpochDraft {
	return &EpochDraft{
		index:   di,
		day:     day,
		cands:   b.cands,
		candIDs: b.candIDs,
		flat:    flat,
		column:  b.hist.Column(di),
		window:  b.hist.WindowColumns(di, b.cfg.APDWindow),
		table:   b.table,
	}
}

// ProbeDay runs the probe-chain half of one APD day: on the first call
// it derives and freezes the candidate universe (hitlist multi-level
// mapping plus all BGP-announced prefixes); later calls first narrow to
// prefixes whose running mask is near aliased, since a full daily
// re-derivation would be probe-for-probe identical in the simulator but
// pointlessly slow (see DESIGN.md). It then probes the day's fan-out
// targets, appends the history column, and folds it into the running
// masks. The returned draft is immutable.
func (b *EpochBuilder) ProbeDay(day int) *EpochDraft {
	if b.table == nil {
		cands := apd.HitlistCandidates(b.store.All(), b.cfg.MinTargets)
		cands = append(cands, apd.BGPCandidates(b.world.Table)...)
		b.bind(apd.NewCandidateTable(cands))
		b.hist.Bind(b.table)
	} else {
		b.narrow()
	}
	if b.fan == nil {
		b.fan = apd.FanOutColumn(b.cands, b.cfg.Workers)
	}
	flat := b.detector.ProbeDayFlat(b.fan, day)
	b.hist.AddIDs(b.candIDs, flat)
	di := b.hist.Len() - 1
	b.hist.ORDayInto(di, b.nearMask, b.cfg.Workers)
	return b.draft(di, day, flat)
}

// Seal turns a probed draft into a publish-ready epoch: the window
// merge over the draft's pinned columns, the verdict column (one walk of
// the candidate table's order), its interval compilation into the
// filter, the frozen hitlist pin, and (with Config.EpochSweep) the day's
// sweep of the curated targets. Seal is a pure function of the draft and
// the post-collection hitlist — it never touches the builder's mutable
// state — so seals of different days may run concurrently with each
// other and with later ProbeDay calls, and the result is byte-identical
// to the serial loop's for every worker count and overlap depth.
func (b *EpochBuilder) Seal(d *EpochDraft) *Epoch {
	merged := apd.MergeColumns(d.window, d.table.NumIDs(), b.cfg.Workers)
	verdicts := d.table.Verdicts(d.candIDs, merged)
	e := &Epoch{
		Index:      d.index,
		Day:        d.day,
		Hitlist:    b.store.All().Freeze(),
		Filter:     apd.NewFilter(verdicts),
		Verdicts:   verdicts,
		Candidates: d.cands,
		Probed:     d.flat,
		Column:     d.column,
		Window:     d.window,
		Merged:     merged,
		workers:    b.cfg.Workers,
	}
	if b.cfg.EpochSweep {
		clean := e.CleanTargets()
		e.Scan = &Scan{
			Day:   d.day,
			Addrs: clean,
			Masks: b.scanner.SweepSeqInto(clean, d.day, nil),
		}
	}
	return e
}
