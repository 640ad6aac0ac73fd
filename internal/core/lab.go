package core

import (
	"fmt"
	"strings"
	"sync"

	"expanse/internal/ip6"
	"expanse/internal/sources"
	"expanse/internal/wire"
)

// Report is the uniform output of every reproduced experiment: an
// identifier matching the paper's table/figure numbering, a title, and
// preformatted result lines.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// ReportEntry is one entry of the report registry: the report's id (its
// Report.ID lowercased, without spaces or dots) and the Lab method that
// builds it.
type ReportEntry struct {
	ID  string
	Run func(*Lab) *Report
}

// Reports lists every reproduced table and figure in paper order. It is
// the one list of reports: cmd/hitlist selects from it, the root
// benchmarks and the tests iterate it.
var Reports = []ReportEntry{
	{"table1", (*Lab).Table1}, {"table2", (*Lab).Table2},
	{"fig1a", (*Lab).Fig1a}, {"fig1b", (*Lab).Fig1b}, {"fig1c", (*Lab).Fig1c},
	{"fig2a", (*Lab).Fig2a}, {"fig2b", (*Lab).Fig2b}, {"fig3a", (*Lab).Fig3a}, {"fig3b", (*Lab).Fig3b},
	{"table3", (*Lab).Table3}, {"table4", (*Lab).Table4}, {"sec53", (*Lab).Sec53},
	{"fig4", (*Lab).Fig4}, {"fig5", (*Lab).Fig5}, {"table5", (*Lab).Table5},
	{"table6", (*Lab).Table6}, {"sec55", (*Lab).Sec55},
	{"fig6", (*Lab).Fig6}, {"fig7", (*Lab).Fig7}, {"fig8", (*Lab).Fig8},
	{"sec72", (*Lab).Sec72}, {"sec73", (*Lab).Sec73}, {"table7", (*Lab).Table7}, {"fig9", (*Lab).Fig9},
	{"sec8", (*Lab).Sec8}, {"table8", (*Lab).Table8}, {"fig10", (*Lab).Fig10},
	{"table9", (*Lab).Table9}, {"sec93", (*Lab).Sec93}, {"ablation", (*Lab).AblationGenerators},
}

// Lab caches the expensive pipeline stages shared between experiments so
// the whole suite runs each stage exactly once (collection, APD, the
// daily sweeps, the generation study, …).
//
// A Lab is safe for concurrent use: every stage is a memo read only
// through its accessor (store, fullScan, cleanScan, longitudinal,
// genStudy, rdnsStudy, crowdStudy), which builds it on first use, so
// independent experiments — e.g. parallel benchmarks — can share one Lab
// and each stage still runs exactly once. The APD history is extended
// day by day under a mutex instead (apdDays). Experiments that need the
// curated post-APD view consume the window epoch, which makes their
// results independent of how many extra APD days other experiments have
// appended concurrently.
type Lab struct {
	P *Pipeline

	// apdMu guards the published-epoch list and the pipeline's probe
	// chain (epoch extension is serialized; concurrent experiments just
	// read the immutable epochs below).
	apdMu  sync.Mutex
	epochs []*Epoch // published APD epochs, day order

	collected memo[*sources.Store]
	full      memo[*Scan] // day-0 sweep over the FULL hitlist (pre-APD view)
	clean     memo[*Scan] // day-0 sweep over non-aliased targets (the curated view)
	series    memo[map[string][]float64]
	gen       memo[*genStudyState]
	rdns      memo[*rdnsState]
	crowd     memo[*crowdState]
}

// memo is one stage built on first use: get runs build once, and every
// caller — concurrent first callers included — gets that one value.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(build func() T) T {
	m.once.Do(func() { m.v = build() })
	return m.v
}

// NewLab builds a lab over a fresh pipeline.
func NewLab(cfg Config) *Lab {
	return &Lab{P: New(cfg)}
}

// measureDay returns the first day after collection (the paper's
// "May 11" snapshot).
func (l *Lab) measureDay() int { return l.P.World.Horizon() }

// store returns the source store after collection; its All() is the
// hitlist.
func (l *Lab) store() *sources.Store {
	return l.collected.get(func() *sources.Store {
		l.P.Collect()
		return l.P.Store
	})
}

// apdDays extends the published epoch sequence to at least n days
// through the day orchestrator (Cfg.Overlap days in flight) and returns
// the first n. Extension is serialized under apdMu, so the day sequence
// — and the window epoch captured the moment the sliding window fills —
// is identical no matter which experiments race to extend the history.
// Epochs are immutable and never replaced, so the returned slice needs
// no lock.
func (l *Lab) apdDays(n int) []*Epoch {
	l.store()
	l.apdMu.Lock()
	defer l.apdMu.Unlock()
	if len(l.epochs) < n {
		start := l.measureDay() + len(l.epochs)
		// The Lab keeps every epoch deliberately: experiments index back
		// into the sequence (windowEpoch, the stability study).
		l.P.RunDaysFunc(start, n-len(l.epochs), func(e *Epoch) { l.epochs = append(l.epochs, e) })
	}
	return l.epochs[:n]
}

// windowEpoch returns the epoch published the moment the APD history
// first filled Cfg.APDWindow days — the state the paper's daily hitlist
// would publish. Later APD days keep extending the history for the
// stability study without disturbing this snapshot. Its Split is the
// clean/aliased partition of the sorted hitlist, memoized on the epoch,
// so every consumer — Sec53, Fig4, Sec55, the curated-scan targets —
// shares one chunk-parallel interval merge.
func (l *Lab) windowEpoch() *Epoch {
	return l.apdDays(l.P.Cfg.APDWindow)[l.P.Cfg.APDWindow-1]
}

// unstablePrefixes evaluates the Table 4 metric under the APD mutex, so
// it never reads the history while another experiment is extending it.
func (l *Lab) unstablePrefixes(window int) int {
	l.apdMu.Lock()
	defer l.apdMu.Unlock()
	return l.P.Builder().History().UnstablePrefixesWorkers(window, l.P.Cfg.Workers)
}

// fullScan sweeps the complete hitlist once (the pre-APD view that
// Figure 5a needs).
func (l *Lab) fullScan() *Scan {
	return l.full.get(func() *Scan { return l.P.SweepSet(l.store().All(), l.measureDay()) })
}

// cleanScan sweeps the curated (non-aliased) targets of the window epoch.
func (l *Lab) cleanScan() *Scan {
	return l.clean.get(func() *Scan { return l.P.Sweep(l.windowEpoch().CleanTargets(), l.measureDay()) })
}

// maskIndex builds the scan's full address → responsiveness-mask index
// (one entry per scanned target), for consumers that look masks up by
// address rather than walking the columns.
func (s *Scan) maskIndex() map[ip6.Addr]wire.RespMask {
	m := make(map[ip6.Addr]wire.RespMask, len(s.Addrs))
	for i, a := range s.Addrs {
		m[a] = s.Masks[i]
	}
	return m
}
