package core

import (
	"fmt"
	"strings"
	"sync"

	"expanse/internal/apd"
	"expanse/internal/ip6"
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

// Lab caches the expensive pipeline stages shared between experiments so
// the whole suite runs each stage exactly once (collection, APD, the
// daily sweeps, the generation study, …).
//
// A Lab is safe for concurrent use: every stage is memoized behind a
// sync.Once (or, for the incrementally extended APD history, a mutex), so
// independent experiments — e.g. parallel benchmarks — can share one Lab
// and each stage still runs exactly once. Experiments that need the
// curated post-APD view consume the window snapshot (see ensureAPDDays),
// which makes their results independent of how many extra APD days other
// experiments have appended concurrently.
type Lab struct {
	P *Pipeline

	collectOnce sync.Once

	// apdMu guards the published-epoch list and the pipeline's probe
	// chain (epoch extension is serialized; concurrent experiments just
	// read the immutable epochs below).
	apdMu  sync.Mutex
	epochs []*Epoch // published APD epochs, day order

	scanFullOnce  sync.Once
	scanFull      *Scan // day-0 sweep over the FULL hitlist (pre-APD view)
	scanCleanOnce sync.Once
	scanClean     *Scan // day-0 sweep over non-aliased targets (the curated view)

	longOnce     sync.Once
	longitudinal map[string][]float64 // Fig 8 series, keyed by row label

	genOnce   sync.Once
	genStudy  *genStudyState
	rdnsOnce  sync.Once
	rdnsStudy *rdnsState
	crowdOnce sync.Once
	crowd     *crowdState
}

// NewLab builds a lab over a fresh pipeline.
func NewLab(cfg Config) *Lab {
	return &Lab{P: New(cfg)}
}

// measureDay returns the first day after collection (the paper's
// "May 11" snapshot).
func (l *Lab) measureDay() int { return l.P.World.Horizon() }

func (l *Lab) ensureCollected() {
	l.collectOnce.Do(func() { l.P.Collect() })
}

// ensureAPD runs APD for enough days to fill the sliding window and set
// the filter (window semantics: APDWindow = total days merged).
func (l *Lab) ensureAPD() {
	l.ensureAPDDays(l.P.Cfg.APDWindow)
}

// ensureAPDDays extends the published epoch sequence to at least n days
// through the day orchestrator (Cfg.Overlap days in flight). Extension
// is serialized under apdMu, so the day sequence — and the window epoch
// captured the moment the sliding window fills — is identical no matter
// which experiments race to extend the history.
func (l *Lab) ensureAPDDays(n int) {
	l.ensureCollected()
	l.apdMu.Lock()
	defer l.apdMu.Unlock()
	if len(l.epochs) < n {
		start := l.measureDay() + len(l.epochs)
		// The Lab keeps every epoch deliberately: experiments index back
		// into the sequence (windowEpoch, the stability study).
		l.P.RunDaysFunc(start, n-len(l.epochs), func(e *Epoch) { l.epochs = append(l.epochs, e) })
	}
}

// windowEpoch returns the epoch published the moment the APD history
// first filled Cfg.APDWindow days — the state the paper's daily hitlist
// would publish. Later APD days keep extending the history for the
// stability study without disturbing this snapshot: epochs are
// immutable, so no lock is needed once the pointer is out.
func (l *Lab) windowEpoch() *Epoch {
	l.ensureAPD()
	l.apdMu.Lock()
	defer l.apdMu.Unlock()
	return l.epochs[l.P.Cfg.APDWindow-1]
}

// hitlistSplit returns the clean/aliased partition of the sorted
// hitlist under the window epoch's filter, plus the raw per-address
// classification aligned with Hitlist().Sorted(). The split is memoized
// on the epoch, so every consumer — Sec53, Fig4, Fig5, the curated-scan
// targets — shares one chunk-parallel interval merge.
func (l *Lab) hitlistSplit() (clean, aliased []ip6.Addr, bits []bool) {
	return l.windowEpoch().Split()
}

// cleanTargets returns the curated hitlist of the window epoch.
func (l *Lab) cleanTargets() []ip6.Addr {
	return l.windowEpoch().CleanTargets()
}

// filter returns the alias filter of the window epoch.
func (l *Lab) filter() *apd.Filter {
	return l.windowEpoch().Filter
}

// unstablePrefixes evaluates the Table 4 metric under the APD mutex, so
// it never reads the history while another experiment is extending it.
func (l *Lab) unstablePrefixes(window int) int {
	l.apdMu.Lock()
	defer l.apdMu.Unlock()
	return l.P.Builder().History().UnstablePrefixesWorkers(window, l.P.Cfg.Workers)
}

// ensureScanFull sweeps the complete hitlist once (the pre-APD view that
// Figure 5a needs).
func (l *Lab) ensureScanFull() {
	l.scanFullOnce.Do(func() {
		l.ensureCollected()
		l.scanFull = l.P.SweepSet(l.P.Hitlist(), l.measureDay())
	})
}

// ensureScanClean sweeps the curated (non-aliased) targets.
func (l *Lab) ensureScanClean() {
	l.scanCleanOnce.Do(func() {
		l.scanClean = l.P.Sweep(l.cleanTargets(), l.measureDay())
	})
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
