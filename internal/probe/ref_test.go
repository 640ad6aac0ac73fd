package probe

import (
	"sync"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// The per-probe scan engine, retired from production and kept as the
// probe-for-probe oracle of the columnar engine: one Probe call (the
// prober below) and one materialized Result per probe, walking the permutation in
// SEQUENCE order (the columnar engine walks target-index order and
// recovers send times through the inverse permutation). Same
// permutations, same virtual send times.

// prober is the per-probe answer the oracle sends through: the test
// fake's and the simulated Internet's Probe.
type prober interface {
	Probe(dst ip6.Addr, p wire.Proto, day int, at wire.Time) wire.Response
}

// Permutation is the forward, materialized form of the scan order
// InversePermutation produces: a pseudo-random permutation of [0,n) by an
// affine walk over the next power of two with out-of-range skipping.
type Permutation struct {
	n     int
	cache []uint32 // materialized order
}

// NewPermutation builds the permutation for n elements from a seed.
func NewPermutation(n int, seed uint64) *Permutation {
	p := &Permutation{n: n, cache: make([]uint32, 0, n)}
	size := uint64(1)
	for size < uint64(n) {
		size <<= 1
	}
	mask := size - 1
	h := seed
	h = h*0x9e3779b97f4a7c15 + 0x85ebca6b
	mul := h<<1 | 1 // odd ⇒ bijective over 2^k
	add := h >> 17
	// Materialize: the affine walk visits each slot of [0,2^k) once;
	// indices >= n are skipped.
	for i := uint64(0); i <= mask && len(p.cache) < n; i++ {
		v := (i*mul + add) & mask
		if v < uint64(n) {
			p.cache = append(p.cache, uint32(v))
		}
	}
	return p
}

// At returns the target index at sequence position seq.
func (p *Permutation) At(seq int) int { return int(p.cache[seq]) }

// Len returns the number of elements.
func (p *Permutation) Len() int { return p.n }

// Result is the outcome of probing one target on one protocol.
type Result struct {
	Addr     ip6.Addr
	Proto    wire.Proto
	OK       bool
	HopLimit uint8
	TCP      *wire.TCPInfo
	SentAt   wire.Time
}

// Pair holds the two consecutive fingerprint probes of §5.4.
type Pair struct {
	First, Second Result
}

// shard splits the sequence positions [0,n) into s.workers contiguous
// chunks — deliberately NOT 64-aligned, unlike the production shards —
// and runs fn(lo,hi) for each on its own goroutine.
func (s *Scanner) shard(n int, fn func(lo, hi int)) {
	chunk := (n + s.workers - 1) / s.workers
	if chunk == 0 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// scanSeq probes every target once on the given protocol
// during the given day; results are returned in target order.
func (s *Scanner) scanSeq(targets []ip6.Addr, proto wire.Proto, day int) []Result {
	n := len(targets)
	results := make([]Result, n)
	perm := NewPermutation(n, s.seed^uint64(proto)<<32^uint64(day))
	iv := sendInterval

	s.shard(n, func(lo, hi int) {
		// Each worker walks its slice of the *permuted* sequence;
		// the sequence position fixes the virtual send time, so
		// results are identical regardless of worker count.
		for seq := lo; seq < hi; seq++ {
			idx := perm.At(seq)
			addr := targets[idx]
			at := wire.Time(seq) * iv
			results[idx] = s.probeOnce(addr, proto, day, at)
		}
	})
	return results
}

func (s *Scanner) probeOnce(addr ip6.Addr, proto wire.Proto, day int, at wire.Time) Result {
	resp := s.responder.(prober).Probe(addr, proto, day, at)
	return Result{
		Addr: addr, Proto: proto,
		OK: resp.OK, HopLimit: resp.HopLimit, TCP: resp.TCP,
		SentAt: at,
	}
}

// sweepSeq is the per-probe sweep: five per-probe scans folded into
// masks through full []Result slices.
func (s *Scanner) sweepSeq(targets []ip6.Addr, day int) []wire.RespMask {
	masks := make([]wire.RespMask, len(targets))
	for _, p := range wire.Protos {
		for i, r := range s.scanSeq(targets, p, day) {
			if r.OK {
				masks[i].Set(p)
			}
		}
	}
	return masks
}

// probePairsSeq sends two back-to-back TCP probes with the options
// module to every target, one Probe call each.
func (s *Scanner) probePairsSeq(targets []ip6.Addr, proto wire.Proto, day int) []Pair {
	n := len(targets)
	out := make([]Pair, n)
	iv := sendInterval
	perm := NewPermutation(n, s.seed^0xfb^uint64(day))
	s.shard(n, func(lo, hi int) {
		for seq := lo; seq < hi; seq++ {
			idx := perm.At(seq)
			addr := targets[idx]
			at := wire.Time(seq) * iv * 2
			out[idx] = Pair{
				First:  s.probeOnce(addr, proto, day, at),
				Second: s.probeOnce(addr, proto, day, at+iv),
			}
		}
	})
	return out
}
