// Package apd implements the paper's multi-level aliased prefix detection
// (§5): probing 16 pseudo-random addresses per candidate prefix — one in
// each 4-bit subprefix (the "fan-out" of Table 3) — on ICMPv6 and TCP/80,
// classifying a prefix as aliased when all 16 respond, with cross-protocol
// response merging and a multi-day sliding window for loss resilience
// (§5.2), and a longest-prefix-match filter applied to the hitlist (§5.1).
//
// The package is organized around the columnar alias plane:
// candidates.go derives the candidate set from the hitlist's cached
// sorted view by run-boundary scanning and freezes it into a
// CandidateTable with stable prefix IDs and one (address, length) order;
// history.go keeps the sliding-window observations as per-day mask
// columns indexed by those IDs; verdicts.go turns a day's window-merged
// masks into a verdict column in the table's order; filter.go compiles
// that column into a sorted interval table merged linearly against
// sorted address streams. This file holds the probing machinery
// (fan-out, branch masks, the Detector) and the §5.1 nested-pair
// taxonomy.
//
// The static-/96 detection of Murdock et al., which the paper compares
// against in §5.5, is implemented in murdock.go.
package apd

import (
	"math/bits"

	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/lazyrand"
	"expanse/internal/par"
	"expanse/internal/probe"
	"expanse/internal/wire"
)

// Branches is the fan-out width: one probe per 4-bit subprefix.
const Branches = 16

// DefaultMinTargets is the paper's candidate threshold: prefixes with
// more than 100 hitlist targets are probed (plus all /64s regardless).
const DefaultMinTargets = 100

// DefaultProtocols are the probe protocols of §5.1 (32 probes/prefix).
var DefaultProtocols = []wire.Proto{wire.ICMPv6, wire.TCP80}

// FanOut generates the 16 probe targets of a prefix: one pseudo-random
// address inside each of its 16 next-level subprefixes (Table 3). The
// addresses are deterministic per prefix, so the same targets are probed
// every day — the sliding window of §5.2 tracks per-address responses.
func FanOut(p ip6.Prefix) [Branches]ip6.Addr {
	var out [Branches]ip6.Addr
	fanOutWith(out[:], p)
	return out
}

// FanOutColumn returns the fan-out targets of every candidate as one
// flat column, Branches addresses per entry in entry order — the probe
// column Detector.ProbeDayFlat scans. Candidates fan out independently,
// so up to workers goroutines fill disjoint windows of the column.
func FanOutColumn(cands []Candidate, workers int) []ip6.Addr {
	out := make([]ip6.Addr, len(cands)*Branches)
	par.Ranges(len(cands), workers, 1024, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fanOutWith(out[i*Branches:(i+1)*Branches], cands[i].Prefix)
		}
	})
	return out
}

// fanOutWith writes p's fan-out targets into out (Branches long): 32
// draws of the math/rand stream seeded with fanSeed(p). The lazily seeded
// source computes only the register words those draws read, which is what
// keeps millions of day-0 candidates from paying a 607-word seed each.
func fanOutWith(out []ip6.Addr, p ip6.Prefix) {
	rng := lazyrand.New(fanSeed(p))
	sub := p.Bits() + 4
	if sub > 128 {
		sub = 128
	}
	for i := range out {
		out[i] = p.Subprefix(sub, uint64(i)).WithHostBits(rng.Uint64(), rng.Uint64())
	}
}

// fanSeed derives the fan-out RNG seed from a prefix. Hi and Lo are mixed
// into the seed separately (splitmix64 finalizer between absorptions), so
// distinct prefixes whose Hi^Lo happen to collide at the same length
// still fan out to different targets — a plain XOR fold would probe the
// same pseudo-random addresses for both.
func fanSeed(p ip6.Prefix) int64 {
	h := hash64.Mix(p.Addr().Hi() ^ 0x9e3779b97f4a7c15)
	h = hash64.Mix(h ^ p.Addr().Lo())
	h = hash64.Mix(h ^ uint64(p.Bits()))
	return int64(h)
}

// BranchMask records which of the 16 fan-out branches responded (bit i =
// branch i).
type BranchMask uint16

// AllBranches is the fully-responsive mask — the aliased verdict.
const AllBranches BranchMask = 1<<Branches - 1

// Count returns the number of responding branches.
func (m BranchMask) Count() int { return bits.OnesCount16(uint16(m)) }

// Detector runs APD probing rounds. A Detector is not safe for
// concurrent ProbeDayFlat calls (it accumulates ProbesSent and reuses its
// result columns); each call parallelizes internally across worker
// shards.
type Detector struct {
	scanner   *probe.Scanner
	protocols []wire.Proto
	workers   int
	// cols are the per-protocol mask-only result columns of ProbeDayFlat,
	// reused across probing days (an OK bit per fan-out target is all the
	// branch merge needs).
	cols []wire.ResultColumns
	// ProbesSent accumulates the number of probe packets sent, for the
	// bandwidth comparison of §5.5.
	ProbesSent int
}

// NewDetectorWorkers builds a detector over a responder with an explicit
// per-protocol worker-shard count (<= 0 selects the default of 8).
// Protocols defaults to ICMPv6+TCP/80.
func NewDetectorWorkers(r wire.Responder, workers int, protocols ...wire.Proto) *Detector {
	if len(protocols) == 0 {
		protocols = DefaultProtocols
	}
	if workers <= 0 {
		workers = 8
	}
	return &Detector{
		scanner:   probe.New(r, probe.WithWorkers(workers), probe.WithSeed(0xa9d)),
		protocols: protocols,
		workers:   workers,
	}
}

// Workers returns the configured per-protocol worker-shard count.
func (d *Detector) Workers() int { return d.workers }

// ProbeDayFlat probes a fan-out target column (FanOutColumn: Branches
// addresses per candidate) on all protocols for one day and returns the
// per-candidate branch masks in column order, with cross-protocol merging
// already applied ("we treat an address as responsive even if it replies
// to only the ICMPv6 or the TCP/80 probe"). The flat slice is the
// columnar form the day history consumes directly; entries sharing a
// prefix get independent masks here and OR-merge at the history layer.
//
// Probing runs on the batched columnar path: each protocol's lane of the
// scan writes only an OK bitset (one bit per target, reused across days),
// and a candidate's branch mask is its 16-bit window of that column ORed
// across protocols. Candidates are probed in ComparePrefix order and a
// prefix's 16 fan-out targets sit inside the prefix, so the batch
// responder resolves long runs of targets against one aliased region —
// once for all protocols — instead of walking a trie per probe. The mask
// fold is sharded over candidates after the scan.
func (d *Detector) ProbeDayFlat(targets []ip6.Addr, day int) []BranchMask {
	if d.cols == nil {
		d.cols = make([]wire.ResultColumns, len(d.protocols))
	}
	for pi := range d.cols {
		d.cols[pi].ResetOK(len(targets))
	}
	d.scanner.ScanProtos(targets, d.protocols, day, d.cols)
	d.ProbesSent += len(d.protocols) * len(targets)

	// Sharded fold: each worker extracts its candidates' 16-bit branch
	// windows from the protocol bitsets.
	flat := make([]BranchMask, len(targets)/Branches)
	par.Ranges(len(flat), d.workers, 1, 1, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			var m BranchMask
			for pi := range d.cols {
				m |= BranchMask(d.cols[pi].OK.Extract16(ci * Branches))
			}
			flat[ci] = m
		}
	})
	return flat
}

// NestedCase classifies a (more specific, less specific) candidate pair
// per the four-case taxonomy of §5.1.
type NestedCase int

// The four §5.1 cases.
const (
	CaseBothAliased NestedCase = iota + 1
	CaseBothNonAliased
	CaseMoreAliasedLessNot
	CaseMoreNotLessAliased // the anomaly case
)

// CaseCounts tallies the §5.1 taxonomy over all nested candidate pairs,
// comparing each prefix against its closest probed ancestor. In the
// verdict column's order a prefix follows all its ancestors, so the open
// ancestors form a stack and the closest one is its top.
func CaseCounts(v Verdicts) map[NestedCase]int {
	counts := map[NestedCase]int{}
	var open []int // indices of the prefixes containing the current one
	for i, p := range v.Prefixes {
		for len(open) > 0 && !v.Prefixes[open[len(open)-1]].Contains(p.Addr()) {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			more, less := v.Aliased[i], v.Aliased[open[len(open)-1]]
			switch {
			case more && less:
				counts[CaseBothAliased]++
			case !more && !less:
				counts[CaseBothNonAliased]++
			case more && !less:
				counts[CaseMoreAliasedLessNot]++
			default:
				counts[CaseMoreNotLessAliased]++
			}
		}
		open = append(open, i)
	}
	return counts
}
