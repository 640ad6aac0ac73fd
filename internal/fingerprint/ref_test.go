package fingerprint

import (
	"sort"

	"expanse/internal/stats"
	"expanse/internal/wire"
)

// The per-sample form of the §5.4 analysis — one heap TCPInfo per
// response, every value test a field (and string) compare — retired from
// production with the per-probe scan engine that fed it, and kept as the
// reference AnalyzeRefs is property-pinned against.

// Sample is one fingerprintable response.
type Sample struct {
	// SentAt is the probe's virtual send time (receive time differs by a
	// near-constant RTT, which linear regression absorbs).
	SentAt wire.Time
	// HopLimit is the received hop limit.
	HopLimit uint8
	// TCP is the SYN-ACK option data (nil = no usable response).
	TCP *wire.TCPInfo
}

// Analyze runs all §5.4 tests over the fingerprint samples of one prefix.
func Analyze(samples []Sample) Report {
	var rep Report
	var usable []Sample
	for _, s := range samples {
		if s.TCP != nil {
			usable = append(usable, s)
		}
	}
	rep.Samples = len(usable)
	if len(usable) < 2 {
		rep.TSIndecisive = true
		return rep
	}

	first := usable[0]
	for _, s := range usable[1:] {
		if ITTL(s.HopLimit) != ITTL(first.HopLimit) {
			rep.ITTLInconsistent = true
		}
		if s.TCP.OptionsText != first.TCP.OptionsText {
			rep.OptionsInconsistent = true
		}
		if s.TCP.WScale != first.TCP.WScale {
			rep.WScaleInconsistent = true
		}
		if s.TCP.MSS != first.TCP.MSS {
			rep.MSSInconsistent = true
		}
		if s.TCP.WSize != first.TCP.WSize {
			rep.WSizeInconsistent = true
		}
	}

	rep.TSConsistent, rep.TSWhichPassed = timestampTest(usable)
	rep.TSIndecisive = !rep.TSConsistent
	return rep
}

// timestampTest applies the three §5.4 checks in order.
func timestampTest(usable []Sample) (bool, string) {
	// Split into with/without timestamps.
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
