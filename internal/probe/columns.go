package probe

import (
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/wire"
)

// This file is the scan engine. Every scan is a set of LANES over one
// target list — a lane is a protocol, the permutation that orders it on
// the wire and the send-time line over that order — and one engine,
// scanLanes, runs them all: ScanColumns is its one-lane case, the
// five-protocol sweep its five-lane case, the §5.4 fingerprint pairs two
// lanes of one protocol a send interval apart. scanLanes walks each
// worker's shard in TARGET-INDEX order — so a sorted target view presents
// the responder with sorted runs it can resolve once per run — and hands
// the responder whole batches of every lane at once, so it resolves a
// target once for all its lanes, writing straight into each lane's
// wire.ResultColumns. A probe's virtual send time is fixed by its
// position in its lane's permutation, recovered through the inverse
// permutation, so the batched engine is probe-for-probe identical to the
// per-probe reference (ref_test.go) at any worker count and chunk size.

// batchLen is the inner batch size handed to the responder: large enough
// to amortize the call, small enough to keep each batch's send-time
// scratch cache-warm.
const batchLen = 512

// shards runs fn over [0,n) split across the scanner's workers. Virtual
// send times are a pure function of sequence position, so sharding never
// changes what goes on the (simulated) wire. Boundaries are aligned to
// 64 indices: concurrent workers never share a word of an OK bitset.
func (s *Scanner) shards(n int, fn func(c, lo, hi int)) {
	par.Ranges(n, s.workers, 1, 64, fn)
}

// lane is one line of a scan: target i is probed on proto at virtual
// time inv[i]*step + off, inv the inverse permutation of the lane's order
// (the scan's orders[order]), and answers land in out. Lanes that share
// an order share its permutation.
type lane struct {
	proto     wire.Proto
	order     int
	step, off wire.Time
	out       *wire.ResultColumns
}

// ScanColumns probes every target once on the given protocol during the
// given day, writing results into out, which must have been Reset (or
// ResetOK, for mask-only consumers) for exactly len(targets) targets. Column i describes target i. The probe ORDER
// over the wire follows a pseudo-random permutation, like ZMap's address
// randomization, so bursts never hammer one prefix.
//
// ScanColumns is safe for concurrent use: the Scanner carries no per-scan
// state beyond its pooled buffers, so overlapping days run several scans
// in parallel against one Scanner as long as the Responder honors the
// concurrency contract documented in netsim.
func (s *Scanner) ScanColumns(targets []ip6.Addr, proto wire.Proto, day int, out *wire.ResultColumns) {
	lanes := []lane{{proto: proto, step: sendInterval, out: out}}
	s.scanLanes(targets, day, []uint64{s.protoOrder(proto, day)}, lanes, nil)
}

// ScanProtos is ScanColumns over several protocols at once: protocol k
// of protos is scanned into outs[k] — each with its own permutation and
// send-time line, so outs[k] is bit for bit what ScanColumns(targets,
// protos[k], day, &outs[k]) writes — but every target is handed to the
// responder once, with all its protocols, instead of once per protocol.
func (s *Scanner) ScanProtos(targets []ip6.Addr, protos []wire.Proto, day int, outs []wire.ResultColumns) {
	s.scanProtos(targets, protos, day, outs, nil)
}

// scanProtos is ScanProtos over the caller's inverse-permutation scratch
// (nil borrows the scanner's pooled one).
func (s *Scanner) scanProtos(targets []ip6.Addr, protos []wire.Proto, day int, outs []wire.ResultColumns, invs *invSet) {
	orders := make([]uint64, len(protos))
	lanes := make([]lane, len(protos))
	for k, p := range protos {
		orders[k] = s.protoOrder(p, day)
		lanes[k] = lane{proto: p, order: k, step: sendInterval, out: &outs[k]}
	}
	s.scanLanes(targets, day, orders, lanes, invs)
}

// protoOrder is the permutation seed of one protocol's scan on one day.
func (s *Scanner) protoOrder(p wire.Proto, day int) uint64 {
	return s.seed ^ uint64(p)<<32 ^ uint64(day)
}

// invSet is the inverse-permutation scratch of one scan, one buffer per
// order, reused from scan to scan.
type invSet [][]uint32

// scanLanes is the scan engine: it probes every target on every lane
// during the given day. orders are the permutation seeds the lanes refer
// to; their inverse permutations are built concurrently, one per order,
// into invs (the caller's scratch; nil borrows the scanner's pooled one —
// the APD detector probes millions of fan-out targets per day), before
// the targets fan out over the scanner's worker shards: one sharding
// whatever the number of lanes. Each shard walks its targets in index
// order: take a batch targets[b:e], fix each lane's send times from the
// permutation positions, and let the responder answer all lanes of the
// batch in one call.
func (s *Scanner) scanLanes(targets []ip6.Addr, day int, orders []uint64, lanes []lane, invs *invSet) {
	n := len(targets)
	if invs == nil {
		if invs, _ = s.invPool.Get().(*invSet); invs == nil {
			invs = new(invSet)
		}
		defer s.invPool.Put(invs)
	}
	for len(*invs) < len(orders) {
		*invs = append(*invs, nil)
	}
	inv := *invs
	par.Ranges(len(orders), len(orders), 1, 1, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			inv[k] = InversePermutation(inv[k], n, orders[k])
		}
	})
	s.shards(n, func(_, lo, hi int) {
		// Per shard: the responder's view of the lanes and one send-time
		// scratch per lane, reused by every batch.
		wl := make([]wire.Lane, len(lanes))
		ats := make([]wire.Time, len(lanes)*batchLen)
		for li, ln := range lanes {
			wl[li] = wire.Lane{Proto: ln.proto, Out: ln.out}
		}
		for b := lo; b < hi; b += batchLen {
			e := min(b+batchLen, hi)
			for li := range lanes {
				ln := &lanes[li]
				pos := inv[ln.order]
				at := ats[li*batchLen:][:e-b]
				for i := b; i < e; i++ {
					at[i-b] = wire.Time(pos[i])*ln.step + ln.off
				}
				if ln.out.SentAt != nil {
					copy(ln.out.SentAt[b:e], at)
				}
				wl[li].At = at
			}
			s.responder.ProbeLanes(targets[b:e], day, wl, b)
		}
	})
}

// sweepBufs is the reusable scratch of a five-protocol sweep: one
// mask-only column set and one inverse permutation per protocol. A sweep
// owns them — a one-day sweep's die with it, a streamed one's last its
// days — instead of parking five hitlist-sized buffers in the pool.
type sweepBufs struct {
	cols [wire.NumProtos]wire.ResultColumns
	inv  invSet
}

// sweepInto runs one day's five-protocol sweep into masks (len ==
// len(targets), fully overwritten): the five-lane scan, every lane
// writing only its OK bitset. Every protocol keeps its own permutation
// and virtual send-time line, so the result is bit-identical to running
// the protocols one after another; the masks fold the five bitsets
// word-by-word after the scan.
func (s *Scanner) sweepInto(targets []ip6.Addr, day int, bufs *sweepBufs, masks []wire.RespMask) {
	n := len(targets)
	for pi := range bufs.cols {
		bufs.cols[pi].ResetOK(n)
	}
	s.scanProtos(targets, wire.Protos[:], day, bufs.cols[:], &bufs.inv)
	// Fold: protocol pi's OK bit is exactly mask bit pi (Protos is the
	// canonical order), so each 64-target block folds five words.
	s.shards(n, func(_, lo, hi int) {
		for w := lo >> 6; w<<6 < hi; w++ {
			base := w << 6
			end := base + 64
			if end > hi {
				end = hi
			}
			var words [wire.NumProtos]uint64
			for pi := range words {
				words[pi] = bufs.cols[pi].OK[w]
			}
			for i := base; i < end; i++ {
				sh := uint(i - base)
				masks[i] = wire.RespMask(
					words[0]>>sh&1 |
						words[1]>>sh&1<<1 |
						words[2]>>sh&1<<2 |
						words[3]>>sh&1<<3 |
						words[4]>>sh&1<<4)
			}
		}
	})
}

// SweepSeqInto probes every target on all five protocols for one day —
// the paper's daily responsiveness scan (§6) — into a caller-owned mask
// column: masks is resized to len(targets) (reallocating only when
// capacity is short), fully overwritten, and returned. This is the
// per-day column handoff of the epoch pipeline — each published day keeps
// its own mask column while the scan scratch (per-protocol OK bitsets,
// inverse permutations) stays internal to the call. Safe for concurrent
// use: mask-only sweeps share no scanner state, so overlapping days may
// sweep in parallel.
func (s *Scanner) SweepSeqInto(targets []ip6.Addr, day int, masks []wire.RespMask) []wire.RespMask {
	n := len(targets)
	if cap(masks) < n {
		masks = make([]wire.RespMask, n)
	} else {
		masks = masks[:n]
	}
	var bufs sweepBufs
	s.sweepInto(targets, day, &bufs, masks)
	return masks
}

// SweepDays streams a multi-day sweep over one target list: days
// consecutive daily sweeps starting at day0, reusing one set of column
// and mask buffers throughout. fn receives each day's masks, which are
// only valid during the call — consumers fold them into their own state
// (the longitudinal study of Fig 8 keeps one counter per day). A
// days-day sweep allocates like a single sweep instead of days of them.
func (s *Scanner) SweepDays(targets []ip6.Addr, day0, days int, fn func(day int, masks []wire.RespMask)) {
	var bufs sweepBufs
	masks := make([]wire.RespMask, len(targets))
	for d := 0; d < days; d++ {
		s.sweepInto(targets, day0+d, &bufs, masks)
		fn(day0+d, masks)
	}
}

// PairColumns is the structure-of-arrays form of the §5.4 fingerprint
// pair probing: column i of First/Second describes the two back-to-back
// probes of target i, SYN-ACK fingerprints included.
type PairColumns struct {
	First, Second wire.ResultColumns
}

// ProbePairColumns sends two back-to-back probes with the TCP options
// module to every target (§5.4) and writes them into pair columns: two
// lanes of one protocol over one permutation, the second probe of a pair
// leaving one send interval after the first.
func (s *Scanner) ProbePairColumns(targets []ip6.Addr, proto wire.Proto, day int, out *PairColumns) {
	n := len(targets)
	out.First.Reset(n)
	out.Second.Reset(n)
	lanes := []lane{
		{proto: proto, step: 2 * sendInterval, out: &out.First},
		{proto: proto, step: 2 * sendInterval, off: sendInterval, out: &out.Second},
	}
	s.scanLanes(targets, day, []uint64{s.seed ^ 0xfb ^ uint64(day)}, lanes, nil)
}
