// Package probe implements the measurement engine of the pipeline — the
// role ZMapv6 plays in the paper (§6). It scans target lists over the five
// probe protocols, with ZMap-style address-space permutation (so probes to
// the same network are spread over the scan), the paper's fixed 100k pps
// pacing mapped onto virtual send times, a concurrent worker pool, and a
// TCP options module that records fingerprint data (§5.4).
//
// The engine is columnar and batched (columns.go): every scan takes a
// []ip6.Addr target slice, hands the responder contiguous batches of it
// without copying, and writes wire.ResultColumns. Every scan is a set of
// lanes — protocols or send-time lines over one target list — through one
// engine, so the responder resolves each target once for all of them.
// Each target is probed once per lane: ZMap sends a single stateless
// probe. The Scanner's whole surface is ScanColumns (one protocol),
// ScanProtos (several at once; APD's two), SweepSeqInto and SweepDays
// (the five-protocol responsiveness sweep, one day or streamed) and
// ProbePairColumns (the §5.4 fingerprint pairs, SYN-ACK fingerprints
// written as values). The per-probe engine it is pinned against
// probe-for-probe lives in ref_test.go.
//
// Concurrency model (see DESIGN.md): a scan fans out over worker shards
// of the target list, whatever its number of lanes. Virtual send times
// are a pure function of a probe's position in its lane's permutation,
// never of goroutine scheduling, so scan results are bit-identical for
// every worker count — determinism is a property of the virtual clock,
// parallelism only decides who walks which slice of the targets.
//
// The engine is generic over wire.Responder, the batched lanes contract:
// production code plugs in the simulated Internet, tests plug in fakes.
package probe

import (
	"sync"

	"expanse/internal/wire"
)

// Scanner is a reusable scanning engine. The zero value is not usable;
// construct with New.
type Scanner struct {
	responder wire.Responder
	workers   int
	seed      uint64
	// invPool recycles inverse-permutation scratch (*invSet) across
	// columnar scans for callers without their own scratch. Recycling
	// matters beyond allocator throughput: multi-day runs allocate these
	// columns every (protocol, day), and transient columns marked live
	// during the GC's concurrent mark phase inflate the next heap goal — on
	// big worlds that ratchet dominated peak RSS.
	invPool sync.Pool
}

// Option configures a Scanner.
type Option func(*Scanner)

// WithWorkers sets the number of concurrent senders (default 8).
func WithWorkers(n int) Option {
	return func(s *Scanner) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithSeed sets the permutation seed (default 1).
func WithSeed(seed uint64) Option {
	return func(s *Scanner) { s.seed = seed }
}

// New creates a Scanner probing via r.
func New(r wire.Responder, opts ...Option) *Scanner {
	s := &Scanner{responder: r, workers: 8, seed: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// sendInterval is the virtual time between consecutive probes of a lane:
// 10 µs, the paper's conservative ZMapv6 rate of 100k probes per second
// (§6).
const sendInterval wire.Time = 10

// InversePermutation returns the scan order of n targets under seed, in
// the form the engine consumes: inv[idx] is the sequence position at
// which target idx goes on the wire. The order is the ZMap-style address
// randomizer — a pseudo-random permutation of [0,n) that visits every
// index exactly once, uncorrelated with numeric target order: an affine
// walk over the next power of two with out-of-range slots skipped. The
// engine walks targets in index order — sorted views then present the
// responder with sorted runs — and recovers each probe's virtual send
// time from its position through inv, so the forward order is never
// materialized (the Permutation oracle in ref_test.go does). buf's
// backing array is reused when large enough; the result is a pure
// function of (n, seed), identical whatever buf held before.
func InversePermutation(buf []uint32, n int, seed uint64) []uint32 {
	if cap(buf) < n {
		buf = make([]uint32, n)
	} else {
		buf = buf[:n]
	}
	size := uint64(1)
	for size < uint64(n) {
		size <<= 1
	}
	mask := size - 1
	h := seed*0x9e3779b97f4a7c15 + 0x85ebca6b
	mul := h<<1 | 1 // odd ⇒ bijective over 2^k
	add := h >> 17
	seq := 0
	for i := uint64(0); i <= mask && seq < n; i++ {
		if v := (i*mul + add) & mask; v < uint64(n) {
			buf[v] = uint32(seq)
			seq++
		}
	}
	return buf
}
