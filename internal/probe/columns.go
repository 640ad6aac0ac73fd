package probe

import (
	"sync"

	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/wire"
)

// This file is the scan engine. ScanColumns walks each worker's shard in
// TARGET-INDEX order — so a sorted target view presents the responder
// with sorted runs it can resolve once per run — and hands the responder
// whole batches that write straight into wire.ResultColumns. A probe's
// virtual send time is fixed by its position in the per-protocol
// permutation, recovered through the inverse permutation, so the batched
// engine is probe-for-probe identical to the per-probe reference
// (ref_test.go) at any worker count and chunk size.

// batchLen is the inner batch size handed to the responder: large enough
// to amortize the call, small enough to keep gather scratch cache-warm.
const batchLen = 512

// shards runs fn over [0,n) split across the scanner's workers. Virtual
// send times are a pure function of sequence position, so sharding never
// changes what goes on the (simulated) wire. Boundaries are aligned to
// 64 indices: concurrent workers never share a word of an OK bitset.
func (s *Scanner) shards(n int, fn func(c, lo, hi int)) {
	par.Ranges(n, s.workers, 1, 64, fn)
}

// TCPTable returns the scanner's fingerprint interning table. All columnar
// scans through this scanner intern into it, so refs are comparable across
// scans and days.
func (s *Scanner) TCPTable() *wire.TCPTable { return s.tcp }

// ScanColumns probes every target once (plus retries) on the given
// protocol during the given day, writing results into out, which must
// have been Reset (or ResetOK, for mask-only consumers) for exactly
// targets.Len() targets. Column i describes target i. The probe ORDER
// over the wire follows a pseudo-random permutation, like ZMap's address
// randomization, so bursts never hammer one prefix.
//
// ScanColumns is safe for concurrent use: the Scanner carries no per-scan
// state beyond its pooled buffers, so the sweep and the APD detector run
// several scans in parallel against one Scanner as long as the Responder
// honors the concurrency contract documented in netsim.
func (s *Scanner) ScanColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *wire.ResultColumns) {
	s.scanColumns(targets, proto, day, out, nil)
}

func (s *Scanner) scanColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *wire.ResultColumns, invBuf *[]uint32) {
	n := targets.Len()
	if invBuf == nil {
		// Callers without their own scratch (the APD detector probes
		// millions of fan-out targets per day) share pooled buffers.
		invBuf = s.pooledInv()
		defer s.invPool.Put(invBuf)
	}
	*invBuf = InversePermutation(*invBuf, n, s.seed^uint64(proto)<<32^uint64(day))
	inv := *invBuf
	iv := s.interval()
	s.shards(n, func(_, lo, hi int) {
		s.scanChunk(targets, proto, day, lo, hi, inv, iv, out)
	})
}

// pooledInv returns a reusable inverse-permutation buffer.
func (s *Scanner) pooledInv() *[]uint32 {
	if buf, ok := s.invPool.Get().(*[]uint32); ok {
		return buf
	}
	return new([]uint32)
}

// forEachBatch slices [lo,hi) into batchLen windows and materializes each
// as a []ip6.Addr for the responder — zero-copy for plain ip6.Addrs
// views, through a reused gather scratch otherwise — calling fn with the
// window and its index range.
func forEachBatch(targets ip6.AddrSeq, lo, hi int, fn func(dsts []ip6.Addr, b, e int)) {
	as, fast := targets.(ip6.Addrs)
	var gather []ip6.Addr
	for b := lo; b < hi; b += batchLen {
		e := b + batchLen
		if e > hi {
			e = hi
		}
		var dsts []ip6.Addr
		if fast {
			dsts = as[b:e]
		} else {
			if gather == nil {
				gather = make([]ip6.Addr, batchLen)
			}
			dsts = gather[:e-b]
			for i := b; i < e; i++ {
				dsts[i-b] = targets.At(i)
			}
		}
		fn(dsts, b, e)
	}
}

// scanChunk probes targets [lo,hi) in index order: gather a batch, fix
// each probe's send time from its permutation position, let the responder
// answer the whole batch, then retry the unanswered subset in place.
func (s *Scanner) scanChunk(targets ip6.AddrSeq, proto wire.Proto, day int, lo, hi int, inv []uint32, iv wire.Time, out *wire.ResultColumns) {
	ats := make([]wire.Time, 0, batchLen)
	var retry retryState
	forEachBatch(targets, lo, hi, func(dsts []ip6.Addr, b, e int) {
		ats = ats[:0]
		for i := b; i < e; i++ {
			at := wire.Time(inv[i]) * iv
			ats = append(ats, at)
			if out.SentAt != nil {
				out.SentAt[i] = at
			}
		}
		wire.ProbeBatchInto(s.responder, dsts, proto, day, ats, out, b)
		if s.retries > 0 {
			retry.run(s, targets, proto, day, b, e, inv, iv, out)
		}
	})
}

// retryState holds the scratch of the in-chunk retry passes: the failed
// subset is re-batched with each attempt's send time shifted one full
// scan length later.
type retryState struct {
	idx  []int
	dsts []ip6.Addr
	ats  []wire.Time
	cols wire.ResultColumns
}

func (r *retryState) run(s *Scanner, targets ip6.AddrSeq, proto wire.Proto, day int, b, e int, inv []uint32, iv wire.Time, out *wire.ResultColumns) {
	n := len(inv)
	r.idx = r.idx[:0]
	for i := b; i < e; i++ {
		if !out.OK.Get(i) {
			r.idx = append(r.idx, i)
		}
	}
	for a := 0; len(r.idx) > 0 && a < s.retries; a++ {
		r.dsts = r.dsts[:0]
		r.ats = r.ats[:0]
		for _, i := range r.idx {
			r.dsts = append(r.dsts, targets.At(i))
			at := wire.Time(inv[i])*iv + wire.Time(a+1)*wire.Time(n)*iv
			r.ats = append(r.ats, at)
			if out.SentAt != nil {
				out.SentAt[i] = at
			}
		}
		if out.Table != nil {
			r.cols.Reset(len(r.idx), out.Table)
		} else {
			r.cols.ResetOK(len(r.idx))
		}
		wire.ProbeBatchInto(s.responder, r.dsts, proto, day, r.ats, &r.cols, 0)
		kept := r.idx[:0]
		for k, i := range r.idx {
			if !r.cols.OK.Get(k) {
				kept = append(kept, i)
				continue
			}
			out.OK.Set(i)
			if out.HopLimit != nil {
				out.HopLimit[i] = r.cols.HopLimit[k]
			}
			if out.TCPRef != nil {
				out.TCPRef[i] = r.cols.TCPRef[k]
				out.TSVal[i] = r.cols.TSVal[k]
			}
		}
		r.idx = kept
	}
}

// sweepBufs is the reusable buffer set of a five-protocol sweep: one
// mask-only column set and one inverse-permutation scratch per protocol.
type sweepBufs struct {
	cols [wire.NumProtos]wire.ResultColumns
	inv  [wire.NumProtos][]uint32
}

// sweepInto runs one day's five-protocol sweep into masks (len ==
// targets.Len(), fully overwritten). The five scans run concurrently,
// each fanned out over the scanner's worker shards (protocols × shards
// goroutines in flight) and writing only its OK bitset. Every protocol
// keeps its own permutation and virtual send-time line, so the result is
// bit-identical to running the protocols one after another; the masks
// fold the five bitsets word-by-word after the barrier.
func (s *Scanner) sweepInto(targets ip6.AddrSeq, day int, bufs *sweepBufs, masks []wire.RespMask) {
	n := targets.Len()
	var wg sync.WaitGroup
	for pi, p := range wire.Protos {
		wg.Add(1)
		go func(pi int, p wire.Proto) {
			defer wg.Done()
			bufs.cols[pi].ResetOK(n)
			s.scanColumns(targets, p, day, &bufs.cols[pi], &bufs.inv[pi])
		}(pi, p)
	}
	wg.Wait()
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
// column: masks is resized to targets.Len() (reallocating only when
// capacity is short), fully overwritten, and returned. This is the
// per-day column handoff of the epoch pipeline — each published day keeps
// its own mask column while the scan scratch (per-protocol OK bitsets,
// inverse permutations) stays internal to the call. Safe for concurrent
// use: mask-only sweeps share no scanner state beyond the pooled inverse
// buffers, so overlapping days may sweep in parallel.
func (s *Scanner) SweepSeqInto(targets ip6.AddrSeq, day int, masks []wire.RespMask) []wire.RespMask {
	n := targets.Len()
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
func (s *Scanner) SweepDays(targets ip6.AddrSeq, day0, days int, fn func(day int, masks []wire.RespMask)) {
	var bufs sweepBufs
	masks := make([]wire.RespMask, targets.Len())
	for d := 0; d < days; d++ {
		s.sweepInto(targets, day0+d, &bufs, masks)
		fn(day0+d, masks)
	}
}

// PairColumns is the structure-of-arrays form of the §5.4 fingerprint
// pair probing: column i of First/Second describes the two back-to-back
// probes of target i, with SYN-ACK fingerprints interned in the
// scanner's table.
type PairColumns struct {
	First, Second wire.ResultColumns
}

// ProbePairColumns sends two back-to-back probes with the TCP options
// module to every target (§5.4) and writes them into pair columns; the
// second probe of a pair leaves one send interval after the first.
func (s *Scanner) ProbePairColumns(targets ip6.AddrSeq, proto wire.Proto, day int, out *PairColumns) {
	n := targets.Len()
	out.First.Reset(n, s.tcp)
	out.Second.Reset(n, s.tcp)
	invBuf := s.pooledInv()
	defer s.invPool.Put(invBuf)
	*invBuf = InversePermutation(*invBuf, n, s.seed^0xfb^uint64(day))
	inv := *invBuf
	iv := s.interval()
	s.shards(n, func(_, lo, hi int) {
		ats1 := make([]wire.Time, 0, batchLen)
		ats2 := make([]wire.Time, 0, batchLen)
		forEachBatch(targets, lo, hi, func(dsts []ip6.Addr, b, e int) {
			ats1 = ats1[:0]
			ats2 = ats2[:0]
			for i := b; i < e; i++ {
				at := wire.Time(inv[i]) * iv * 2
				ats1 = append(ats1, at)
				ats2 = append(ats2, at+iv)
				out.First.SentAt[i] = at
				out.Second.SentAt[i] = at + iv
			}
			wire.ProbeBatchInto(s.responder, dsts, proto, day, ats1, &out.First, b)
			wire.ProbeBatchInto(s.responder, dsts, proto, day, ats2, &out.Second, b)
		})
	})
}
