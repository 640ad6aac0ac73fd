package apd

import (
	"expanse/internal/ip6"
	"expanse/internal/lazyrand"
	"expanse/internal/probe"
	"expanse/internal/wire"
)

// Murdock et al.'s aliased prefix detection (IMC 2017), the baseline of
// §5.5: map addresses to static /96 prefixes, send three probes to each
// of three random addresses per prefix, and classify the prefix as
// aliased when all three addresses reply.

// MurdockDetector runs the static-/96 baseline.
type MurdockDetector struct {
	scanner *probe.Scanner
	// ProbesSent counts probe packets for the bandwidth comparison.
	ProbesSent int
}

// NewMurdockDetector builds the baseline detector.
func NewMurdockDetector(r wire.Responder) *MurdockDetector {
	return &MurdockDetector{
		scanner: probe.New(r, probe.WithWorkers(8), probe.WithSeed(0x96)),
	}
}

// Candidates maps an ascending hitlist (the ShardSet's sorted view) to
// its static /96 prefixes, ascending: one run-boundary scan.
func (d *MurdockDetector) Candidates(sorted []ip6.Addr) []ip6.Prefix {
	var out []ip6.Prefix
	ip6.PrefixRuns(sorted, 96, func(p ip6.Prefix, _, _ int) bool {
		out = append(out, p)
		return true
	})
	return out
}

// murdockPerPrefix is the number of random addresses probed per /96.
const murdockPerPrefix = 3

// murdockTargets draws each prefix's random probe addresses, prefix-major.
func murdockTargets(prefixes []ip6.Prefix) []ip6.Addr {
	targets := make([]ip6.Addr, 0, len(prefixes)*murdockPerPrefix)
	for _, p := range prefixes {
		rng := lazyrand.New(int64(p.Addr().Hi() ^ p.Addr().Lo() ^ 0x96))
		for i := 0; i < murdockPerPrefix; i++ {
			targets = append(targets, p.WithHostBits(rng.Uint64(), rng.Uint64()))
		}
	}
	return targets
}

// Detect probes the /96 candidates (ascending, as Candidates returns
// them) on one day and returns their verdict column. Three random
// addresses per prefix, three probes each (TCP/80, as in the original
// tool), aliased when all three addresses answered at least once. All
// candidates share one length, so NewFilter's LPM over the column
// degenerates to exact covering.
func (d *MurdockDetector) Detect(prefixes []ip6.Prefix, day int) Verdicts {
	targets := murdockTargets(prefixes)
	// Mask-only columnar scans: an OK bit per target is all the verdict
	// needs. The three attempts OR word-by-word into answered.
	var cols wire.ResultColumns
	answered := wire.NewBitset(len(targets))
	for attempt := 0; attempt < 3; attempt++ {
		cols.ResetOK(len(targets))
		d.scanner.ScanColumns(targets, wire.TCP80, day, &cols)
		d.ProbesSent += len(targets)
		for w, word := range cols.OK {
			answered[w] |= word
		}
	}
	v := Verdicts{Prefixes: prefixes, Aliased: make([]bool, len(prefixes))}
	for pi := range prefixes {
		all := true
		for i := 0; i < murdockPerPrefix; i++ {
			all = all && answered.Get(pi*murdockPerPrefix+i)
		}
		v.Aliased[pi] = all
	}
	return v
}
