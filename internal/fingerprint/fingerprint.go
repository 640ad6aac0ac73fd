// Package fingerprint implements the TCP/IP fingerprint consistency tests
// of §5.4: given the SYN-ACK fingerprints collected from the 16 fan-out
// addresses of a prefix (two consecutive probes each), decide whether the
// prefix behaves like a single machine. The tests are, in the paper's
// order: iTTL, options layout ("optionstext"), window scale, MSS, window
// size, and the three-part TCP timestamp test (same value / monotonic /
// linear-regression R² > 0.8). A sample is one row of the scan plane's
// wire.ResultColumns, its SYN-ACK fingerprint a comparable value.
package fingerprint

import (
	"sort"

	"expanse/internal/stats"
	"expanse/internal/wire"
)

// ITTL rounds a received hop limit up to the initial TTL the sender chose:
// one of 32, 64, 128, 255 (§5.4: "rounding the TTL value up to the next
// power of 2"; 255 is the ceiling for values above 128).
func ITTL(hopLimit uint8) uint8 {
	switch {
	case hopLimit <= 32:
		return 32
	case hopLimit <= 64:
		return 64
	case hopLimit <= 128:
		return 128
	default:
		return 255
	}
}

// Report is the per-prefix outcome of all consistency tests.
type Report struct {
	// Samples is the number of usable TCP responses analyzed.
	Samples int

	// Per-test inconsistency flags (a set bit means the prefix showed
	// differing values for that property — evidence against aliasing).
	ITTLInconsistent    bool
	OptionsInconsistent bool
	WScaleInconsistent  bool
	MSSInconsistent     bool
	WSizeInconsistent   bool

	// TSConsistent marks the high-confidence aliasing signal: one of the
	// three timestamp checks passed. TSIndecisive means timestamps were
	// present but no check passed (NOT evidence against aliasing —
	// Linux ≥ 4.10 randomizes per tuple).
	TSConsistent  bool
	TSIndecisive  bool
	TSWhichPassed string // "same", "monotonic", "regression", or ""
}

// Inconsistent reports whether any non-timestamp test failed.
func (r Report) Inconsistent() bool {
	return r.ITTLInconsistent || r.OptionsInconsistent ||
		r.WScaleInconsistent || r.MSSInconsistent || r.WSizeInconsistent
}

// R2Threshold is the paper's regression acceptance bound.
const R2Threshold = 0.8

// Sample is one fingerprintable response: a row of the scan plane's
// wire.ResultColumns.
type Sample struct {
	// SentAt is the probe's virtual send time (receive time differs by a
	// near-constant RTT, which linear regression absorbs).
	SentAt wire.Time
	// HopLimit is the received hop limit.
	HopLimit uint8
	// TCP is the SYN-ACK: its fingerprint (the zero value = no usable
	// response; such samples are skipped) and timestamp value
	// (meaningful iff TSPresent).
	TCP wire.TCPInfo
}

// Analyze runs all §5.4 tests over the fingerprint samples of one prefix.
// Two samples from the same machine profile have equal fingerprints, so
// the per-field value tests run only when fingerprints differ.
func Analyze(samples []Sample) Report {
	var rep Report
	usable := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if s.TCP.Valid() {
			usable = append(usable, s)
		}
	}
	rep.Samples = len(usable)
	if len(usable) < 2 {
		rep.TSIndecisive = true
		return rep
	}

	first := usable[0]
	firstITTL := ITTL(first.HopLimit)
	for _, s := range usable[1:] {
		if ITTL(s.HopLimit) != firstITTL {
			rep.ITTLInconsistent = true
		}
		fp, firstFP := s.TCP.TCPFingerprint, first.TCP.TCPFingerprint
		if fp == firstFP {
			continue // one stack personality: all value tests pass
		}
		if fp.Options() != firstFP.Options() {
			rep.OptionsInconsistent = true
		}
		if fp.WScale != firstFP.WScale {
			rep.WScaleInconsistent = true
		}
		if fp.MSS != firstFP.MSS {
			rep.MSSInconsistent = true
		}
		if fp.WSize != firstFP.WSize {
			rep.WSizeInconsistent = true
		}
	}

	rep.TSConsistent, rep.TSWhichPassed = timestampTest(usable)
	rep.TSIndecisive = !rep.TSConsistent
	return rep
}

// timestampTest applies the three §5.4 timestamp checks in order.
func timestampTest(usable []Sample) (bool, string) {
	var ts []Sample
	for _, s := range usable {
		if s.TCP.TSPresent {
			ts = append(ts, s)
		}
	}
	// Check 1: "whether all hosts send the same (or missing) timestamps".
	if len(ts) == 0 {
		return true, "same" // uniformly missing
	}
	if len(ts) == len(usable) {
		same := true
		for _, s := range ts[1:] {
			if s.TCP.TSVal != ts[0].TCP.TSVal {
				same = false
				break
			}
		}
		if same {
			return true, "same"
		}
	} else {
		// Mixed present/missing: cannot be one machine's clock.
		return false, ""
	}
	if len(ts) < 3 {
		return false, ""
	}
	ordered := make([]Sample, len(ts))
	copy(ordered, ts)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].SentAt < ordered[j].SentAt })
	// Check 2: monotonic across the whole prefix in probe order.
	monotonic := true
	for i := 1; i < len(ordered); i++ {
		if ordered[i].TCP.TSVal < ordered[i-1].TCP.TSVal {
			monotonic = false
			break
		}
	}
	if monotonic {
		return true, "monotonic"
	}
	// Check 3: global linear counter — regression of TSval against
	// receive time with R² > 0.8.
	x := make([]float64, len(ordered))
	y := make([]float64, len(ordered))
	for i, s := range ordered {
		x[i] = float64(s.SentAt) / 1e6
		y[i] = float64(s.TCP.TSVal)
	}
	if r := stats.LinearRegression(x, y); r.R2 > R2Threshold {
		return true, "regression"
	}
	return false, ""
}

// Tally aggregates reports into the rows of Tables 5 and 6.
type Tally struct {
	Prefixes int

	// Inconsistent prefixes per individual test (Table 5's "Incs.").
	ITTL, Options, WScale, MSS, WSize int

	// Cumulative inconsistents in the paper's test order
	// (iTTL → Options → WScale → MSS → WSize), Table 5's "Σ Incs.".
	Cumulative [5]int

	// AnyInconsistent counts prefixes failing at least one test.
	AnyInconsistent int
	// TSConsistent counts prefixes passing the timestamp test.
	TSConsistent int
	// Indecisive counts prefixes that pass all value tests but fail the
	// timestamp test (neither refuted nor confirmed).
	Indecisive int
}

// Tabulate computes the tally over per-prefix reports.
func Tabulate(reports []Report) Tally {
	var t Tally
	t.Prefixes = len(reports)
	for _, r := range reports {
		if r.ITTLInconsistent {
			t.ITTL++
		}
		if r.OptionsInconsistent {
			t.Options++
		}
		if r.WScaleInconsistent {
			t.WScale++
		}
		if r.MSSInconsistent {
			t.MSS++
		}
		if r.WSizeInconsistent {
			t.WSize++
		}
		// Cumulative: prefix counted at each stage if inconsistent in
		// any test up to and including that stage.
		stages := [5]bool{
			r.ITTLInconsistent,
			r.OptionsInconsistent,
			r.WScaleInconsistent,
			r.MSSInconsistent,
			r.WSizeInconsistent,
		}
		acc := false
		for i, s := range stages {
			acc = acc || s
			if acc {
				t.Cumulative[i]++
			}
		}
		switch {
		case r.Inconsistent():
			t.AnyInconsistent++
		case r.TSConsistent:
			t.TSConsistent++
		default:
			t.Indecisive++
		}
	}
	return t
}

// Shares returns the Table 6 row: fraction inconsistent, consistent
// (timestamp-confirmed), and indecisive.
func (t Tally) Shares() (inconsistent, consistent, indecisive float64) {
	if t.Prefixes == 0 {
		return 0, 0, 0
	}
	n := float64(t.Prefixes)
	return float64(t.AnyInconsistent) / n, float64(t.TSConsistent) / n, float64(t.Indecisive) / n
}
