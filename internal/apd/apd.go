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
// CandidateTable with stable prefix IDs; history.go keeps the sliding-
// window observations as per-day mask columns indexed by those IDs;
// filter.go compiles the per-prefix verdicts into a sorted interval
// table merged linearly against sorted address streams. This file holds
// the probing machinery (fan-out, branch masks, the Detector) and the
// §5.1 nested-pair taxonomy.
//
// The static-/96 detection of Murdock et al., which the paper compares
// against in §5.5, is implemented in murdock.go.
package apd

import (
	"math/bits"
	"math/rand"
	"sync"

	"expanse/internal/hash64"
	"expanse/internal/ip6"
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
	return fanOutWith(rand.New(rand.NewSource(fanSeed(p))), p)
}

// fanOutWith is FanOut over a caller-owned generator, reseeded in place.
// Seeding math/rand fills a 607-word state array; deriving millions of
// day-0 candidates through fresh sources churned gigabytes of garbage,
// while reseeding rewrites one array. Output is identical: a reseeded
// generator is state-for-state a freshly constructed one.
func fanOutWith(rng *rand.Rand, p ip6.Prefix) [Branches]ip6.Addr {
	rng.Seed(fanSeed(p))
	var out [Branches]ip6.Addr
	sub := p.Bits() + 4
	if sub > 128 {
		sub = 128
	}
	for i := 0; i < Branches; i++ {
		out[i] = p.Subprefix(sub, uint64(i)).RandomAddr(rng)
	}
	return out
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
// concurrent ProbeDayFlat calls (it accumulates ProbesSent and a fan-out
// cache); each call parallelizes internally across protocols × worker
// shards.
type Detector struct {
	scanner   *probe.Scanner
	protocols []wire.Proto
	workers   int
	// fanCache memoizes per-prefix fan-out targets: candidates are
	// re-probed daily with the same deterministic targets (§5.2), so the
	// 16 RNG draws per prefix are paid once, not once per day.
	fanCache map[ip6.Prefix][Branches]ip6.Addr
	// cols are the per-protocol mask-only result columns of ProbeDayFlat,
	// reused across probing days (an OK bit per fan-out target is all the
	// branch merge needs).
	cols []wire.ResultColumns
	// fanRNG is the reseeded-per-prefix generator behind fanCache fills;
	// targets is the flattened fan-out target scratch, reused across days
	// (day 0 sizes it at the full candidate set; narrowed days reslice).
	fanRNG  *rand.Rand
	targets []ip6.Addr
	// ProbesSent accumulates the number of probe packets sent, for the
	// bandwidth comparison of §5.5.
	ProbesSent int
}

// NewDetector builds a detector over a responder with the default worker
// count. Protocols defaults to ICMPv6+TCP/80.
func NewDetector(r wire.Responder, protocols ...wire.Proto) *Detector {
	return NewDetectorWorkers(r, 0, protocols...)
}

// NewDetectorWorkers builds a detector with an explicit per-protocol
// worker-shard count (<= 0 selects the default of 8). This is how the
// pipeline plumbs its configured concurrency through; NewDetector exists
// for callers that don't care.
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

// ProbeDayFlat probes every candidate's fan-out targets on all protocols
// for one day and returns the per-candidate branch masks in input order,
// with cross-protocol merging already applied ("we treat an address as
// responsive even if it replies to only the ICMPv6 or the TCP/80 probe").
// The flat slice is the columnar form the candidate table and day history
// consume directly; entries sharing a prefix get independent masks here
// and OR-merge at the history layer.
//
// Probing runs on the batched columnar path: each protocol's scan writes
// only an OK bitset (16 × candidates bits, reused across days), and a
// candidate's branch mask is its 16-bit window of that column ORed across
// protocols. Candidates arrive
// in ComparePrefix order and a prefix's 16 fan-out targets sit inside the
// prefix, so the batch responder resolves long runs of targets against one
// aliased region instead of walking a trie per probe. All protocols scan
// concurrently; the mask fold is sharded over candidates after the
// barrier.
func (d *Detector) ProbeDayFlat(cands []Candidate, day int) []BranchMask {
	// Flatten: 16 targets per candidate, probe once per protocol.
	if d.fanCache == nil {
		d.fanCache = make(map[ip6.Prefix][Branches]ip6.Addr, len(cands))
		d.fanRNG = rand.New(rand.NewSource(0))
	}
	if want := len(cands) * Branches; cap(d.targets) < want {
		d.targets = make([]ip6.Addr, 0, want)
	}
	targets := d.targets[:0]
	for _, c := range cands {
		fo, ok := d.fanCache[c.Prefix]
		if !ok {
			fo = fanOutWith(d.fanRNG, c.Prefix)
			d.fanCache[c.Prefix] = fo
		}
		targets = append(targets, fo[:]...)
	}
	d.targets = targets

	if d.cols == nil {
		d.cols = make([]wire.ResultColumns, len(d.protocols))
	}
	var wg sync.WaitGroup
	for pi, proto := range d.protocols {
		wg.Add(1)
		go func(pi int, proto wire.Proto) {
			defer wg.Done()
			d.cols[pi].ResetOK(len(targets))
			d.scanner.ScanColumns(ip6.Addrs(targets), proto, day, &d.cols[pi])
		}(pi, proto)
	}
	wg.Wait()
	d.ProbesSent += len(d.protocols) * len(targets)

	// Sharded fold: each worker extracts its candidates' 16-bit branch
	// windows from the protocol bitsets.
	flat := make([]BranchMask, len(cands))
	par.Ranges(len(cands), d.workers, 1, 1, func(_, lo, hi int) {
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
// comparing each prefix against its closest probed ancestor — a single
// depth-capped LPM walk per prefix (Trie.LookupMax below the prefix's own
// length), not one exact-match probe per bit length.
func CaseCounts(verdicts map[ip6.Prefix]bool) map[NestedCase]int {
	var t ip6.Trie[bool]
	for p, v := range verdicts {
		t.Insert(p, v)
	}
	counts := map[NestedCase]int{}
	for p, more := range verdicts {
		if p.Bits() == 0 {
			continue
		}
		_, less, ok := t.LookupMax(p.Addr(), p.Bits()-1)
		if !ok {
			continue
		}
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
	return counts
}
