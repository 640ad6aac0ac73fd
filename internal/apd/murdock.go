package apd

import (
	"math/rand"
	"sort"

	"expanse/internal/ip6"
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

// Candidates maps hitlist addresses to their static /96 prefixes.
func (d *MurdockDetector) Candidates(addrs []ip6.Addr) []ip6.Prefix {
	seen := map[ip6.Prefix]bool{}
	for _, a := range addrs {
		seen[ip6.PrefixFrom(a, 96)] = true
	}
	out := make([]ip6.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return ip6.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// murdockPerPrefix is the number of random addresses probed per /96.
const murdockPerPrefix = 3

// murdockTargets draws each prefix's random probe addresses, prefix-major.
func murdockTargets(prefixes []ip6.Prefix) []ip6.Addr {
	targets := make([]ip6.Addr, 0, len(prefixes)*murdockPerPrefix)
	for _, p := range prefixes {
		rng := rand.New(rand.NewSource(int64(p.Addr().Hi() ^ p.Addr().Lo() ^ 0x96)))
		for i := 0; i < murdockPerPrefix; i++ {
			targets = append(targets, p.RandomAddr(rng))
		}
	}
	return targets
}

// Detect probes the /96 candidates on one day and returns the set
// classified aliased. Three random addresses per prefix, three probes
// each (TCP/80, as in the original tool), aliased when all three
// addresses answered at least once.
func (d *MurdockDetector) Detect(prefixes []ip6.Prefix, day int) map[ip6.Prefix]bool {
	targets := murdockTargets(prefixes)
	// Mask-only columnar scans: an OK bit per target is all the verdict
	// needs. The three attempts OR word-by-word into answered.
	var cols wire.ResultColumns
	answered := wire.NewBitset(len(targets))
	for attempt := 0; attempt < 3; attempt++ {
		cols.ResetOK(len(targets))
		d.scanner.ScanColumns(ip6.Addrs(targets), wire.TCP80, day, &cols)
		d.ProbesSent += len(targets)
		for w, word := range cols.OK {
			answered[w] |= word
		}
	}
	out := make(map[ip6.Prefix]bool, len(prefixes))
	for pi, p := range prefixes {
		all := true
		for i := 0; i < murdockPerPrefix; i++ {
			if !answered.Get(pi*murdockPerPrefix + i) {
				all = false
				break
			}
		}
		if all {
			out[p] = true
		}
	}
	return out
}

// MurdockFilter builds an LPM filter from the /96 verdicts (every /96 is
// the same length, so LPM degenerates to exact covering).
func MurdockFilter(aliased map[ip6.Prefix]bool) *Filter {
	return NewFilter(aliased)
}
