package ip6

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"expanse/internal/par"
)

// NumShards is the fixed shard count of a ShardSet. Shard assignment is a
// pure function of the address (Hash64 & (NumShards-1)), so two sets with
// the same contents always agree shard by shard — the property the
// reference-equivalence tests rely on.
const (
	shardBits = 6
	NumShards = 1 << shardBits
)

// ShardSet is the production-scale address set of the data plane: a
// hash-sharded, columnar collection of IPv6 addresses. It replaces the
// single global Go map of ip6.Set as the hitlist representation; Set
// remains for small scratch collections.
//
// Layout: each of the NumShards shards holds one append-only []Addr in
// insertion order plus an open-addressed index of positions in it, so
// membership, dedup and insertion order live in one structure. Batch
// mutation (AddSlice) partitions work by shard and runs shards on
// parallel workers; membership reads take only a shard-local read lock.
//
// Sorted view: Sorted serves a cached globally-sorted view.
// The cache is invalidated by any write and rebuilt from scratch on the
// next read — parallel per-shard sorts and a k-way merge of the shards —
// so N consumers of the sorted hitlist pay for one sort, not N. The
// pipeline builds its hitlist first and reads it sorted after, so the
// view is built once per run.
//
// Determinism: contents, counts, the sorted view, and the Each iteration
// order (shard-major, insertion order within a shard) are all independent
// of the worker count. A ShardSet never removes addresses — hitlist
// entries "stay indefinitely" (§3) — which is what makes the epoch
// accounting a single monotone counter.
//
// The zero value is an empty set ready to use.
type ShardSet struct {
	workers int
	shards  [NumShards]shard
	count   atomic.Int64 // total addresses; doubles as the mutation epoch

	sortedMu sync.Mutex
	sorted   []Addr // cached sorted view; valid iff len == count
}

type shard struct {
	mu    sync.RWMutex
	addrs []Addr // insertion order; append-only

	// index is the membership table over addrs: linear probing from
	// Hash64 >> shardBits (the low bits already picked the shard), each
	// slot 0 for empty or a position in addrs + 1. Its length is 0 or a
	// power of two, and at most ¾ of its slots are taken.
	index []uint32
}

// NewShardSetWorkers returns a set preallocated for about n addresses
// with an explicit parallelism cap for batch operations (<= 0 selects
// GOMAXPROCS). The worker count is purely
// a throughput knob: every observable result is identical for every
// value.
func NewShardSetWorkers(n, workers int) *ShardSet {
	s := &ShardSet{workers: workers}
	if per := n / NumShards; per > 0 {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.addrs = make([]Addr, 0, per)
			sh.reserve(per)
		}
	}
	return s
}

// shardOf assigns an address to its shard — a pure hash, never dependent
// on insertion history or worker count.
func shardOf(a Addr) int { return int(a.Hash64() & (NumShards - 1)) }

// Workers returns the parallelism of the set's batch operations, for
// consumers that fan their own pass over its shards out the same way.
func (s *ShardSet) Workers() int {
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > NumShards {
		w = NumShards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// find returns the index slot holding a, or, when a is absent, the empty
// slot that ends its probe run (where inserting a goes). h is a's Hash64
// shifted right by shardBits.
func (sh *shard) find(a Addr, h uint64) (slot uint64, ok bool) {
	if len(sh.index) == 0 {
		return 0, false
	}
	mask := uint64(len(sh.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := sh.index[i]
		if p == 0 {
			return i, false
		}
		if sh.addrs[p-1] == a {
			return i, true
		}
	}
}

// insert appends a to the shard unless present, reporting whether it
// was new; h is as for find. The caller holds the shard lock.
func (sh *shard) insert(a Addr, h uint64) bool {
	slot, ok := sh.find(a, h)
	if ok {
		return false
	}
	if n := len(sh.addrs) + 1; n > len(sh.index)/4*3 {
		sh.reserve(n)
		slot, _ = sh.find(a, h)
	}
	sh.index[slot] = uint32(len(sh.addrs)) + 1
	sh.addrs = append(sh.addrs, a)
	return true
}

// reserve sizes the index to hold n addresses at load ≤ ¾: it doubles the
// table as often as that takes and rehashes every position into it
// once. A slot holds a position + 1 in 32 bits, so one shard holds at
// most 2³²−1 addresses.
func (sh *shard) reserve(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("ip6: ShardSet shard cannot index %d addresses: its uint32 positions stop at 2^32-1", n))
	}
	if n <= len(sh.index)/4*3 {
		return
	}
	slots := max(len(sh.index), 8)
	for n > slots/4*3 {
		slots *= 2
	}
	sh.index = make([]uint32, slots)
	for p, a := range sh.addrs {
		slot, _ := sh.find(a, a.Hash64()>>shardBits)
		sh.index[slot] = uint32(p) + 1
	}
}

// Add inserts a, reporting whether it was newly added.
func (s *ShardSet) Add(a Addr) bool {
	h := a.Hash64()
	sh := &s.shards[h&(NumShards-1)]
	sh.mu.Lock()
	isNew := sh.insert(a, h>>shardBits)
	sh.mu.Unlock()
	if isNew {
		s.count.Add(1)
	}
	return isNew
}

// Contains reports membership. It takes only the owning shard's read
// lock, so lookups scale with readers and never contend across shards.
func (s *ShardSet) Contains(a Addr) bool {
	h := a.Hash64()
	sh := &s.shards[h&(NumShards-1)]
	sh.mu.RLock()
	_, ok := sh.find(a, h>>shardBits)
	sh.mu.RUnlock()
	return ok
}

// Compact reallocates every shard's insertion slice at exact length:
// append growth leaves up to ~2× slack on a set built by many small
// batches, and a write-complete hitlist never uses it. Nothing else
// changes — membership, Each order, the sorted view and FrozenViews are
// as before, and a later write appends to the clipped slice as to any.
// Safe concurrently with readers, not with writers.
func (s *ShardSet) Compact() {
	par.Ranges(NumShards, s.Workers(), 1, 1, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			sh := &s.shards[si]
			sh.mu.Lock()
			if cap(sh.addrs) > len(sh.addrs) {
				sh.addrs = append(make([]Addr, 0, len(sh.addrs)), sh.addrs...)
			}
			sh.mu.Unlock()
		}
	})
}

// CompactCols is Compact under an earlier name, kept only for cmd/bench.
func (s *ShardSet) CompactCols() { s.Compact() }

// MemBytes reports the set's resident heap footprint exactly, by
// capacity: the membership index at 4 bytes per slot, the insertion
// slices, and the cached sorted view if built. The breakdown drives the
// bytes-per-address audit in EXPERIMENTS.md.
func (s *ShardSet) MemBytes() (total, index, columns, sortedView int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		index += int64(len(sh.index)) * 4
		columns += int64(cap(sh.addrs)) * 16
		sh.mu.RUnlock()
	}
	s.sortedMu.Lock()
	sortedView = int64(cap(s.sorted)) * 16
	s.sortedMu.Unlock()
	return index + columns + sortedView, index, columns, sortedView
}

// Len returns the number of addresses.
func (s *ShardSet) Len() int { return int(s.count.Load()) }

// AddSlice inserts every address in addrs in parallel, returning how many
// were new. Within each shard, insertion order follows input order, so
// iteration order is independent of the worker count.
func (s *ShardSet) AddSlice(addrs []Addr) int {
	n := len(addrs)
	if n == 0 {
		return 0
	}
	w := s.Workers()
	// Phase 1: each contiguous input chunk buckets its element indices by
	// shard, in parallel. (Indices fit int32: a batch beyond 2^31
	// addresses is a >32GB argument slice, far past any hitlist batch.)
	// Bucketing pays off even at w=1: phase 2 then takes each shard lock
	// once and fills each shard index in a tight run — about 2× faster than
	// per-address lock/insert on a batch of 10⁶ (see the benchmarks).
	buckets := make([][NumShards][]int32, w)
	par.Ranges(n, w, 1, 1, func(c, lo, hi int) {
		b := &buckets[c]
		for i := lo; i < hi; i++ {
			si := shardOf(addrs[i])
			b[si] = append(b[si], int32(i))
		}
	})
	// Phase 2: each worker owns a contiguous shard range and visits only
	// its shards' bucketed indices, chunk-major — chunks partition the
	// input in order, so per-shard insertion order equals input order
	// regardless of w, and no two workers ever touch the same shard.
	// Each shard's index is sized once for the batch's share of it, so
	// no insert below rehashes.
	counts := make([]int, NumShards)
	par.Ranges(NumShards, w, 1, 1, func(_, slo, shi int) {
		for si := slo; si < shi; si++ {
			sh := &s.shards[si]
			sh.mu.Lock()
			k := len(sh.addrs)
			for c := range buckets {
				k += len(buckets[c][si])
			}
			sh.reserve(k)
			for c := range buckets {
				for _, i := range buckets[c][si] {
					if sh.insert(addrs[i], addrs[i].Hash64()>>shardBits) {
						counts[si]++
					}
				}
			}
			sh.mu.Unlock()
		}
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total > 0 {
		s.count.Add(int64(total))
	}
	return total
}

// Each calls fn for every address — shard-major, insertion order within a
// shard — stopping early if fn returns false. Unlike a Go map walk the
// order is deterministic, and independent of the worker count used to
// build the set.
func (s *ShardSet) Each(fn func(Addr) bool) {
	for i := range s.shards {
		for _, a := range s.shardView(i) {
			if !fn(a) {
				return
			}
		}
	}
}

// shardView captures a shard's slice header under its read lock.
// Appends by concurrent writers go beyond the captured length and never
// move earlier elements, so iterating the view afterwards is safe.
func (s *ShardSet) shardView(i int) []Addr {
	sh := &s.shards[i]
	sh.mu.RLock()
	v := sh.addrs
	sh.mu.RUnlock()
	return v
}

// Shards returns point-in-time views of all shards, each its addresses
// in insertion order: the unit of work for consumers that take the set
// shard by shard — Store.Stats' attribution tally. The views are shared
// with the set: treat them as read-only.
func (s *ShardSet) Shards() [][]Addr {
	out := make([][]Addr, NumShards)
	for i := range out {
		out[i] = s.shardView(i)
	}
	return out
}

// Sorted returns the addresses in ascending numeric order. The returned
// slice is the set's cached sorted view, built by the first read after a
// write and SHARED between callers: treat it as read-only.
func (s *ShardSet) Sorted() []Addr {
	s.sortedMu.Lock()
	defer s.sortedMu.Unlock()
	// Writes only ever grow the set, so the cache is valid exactly when
	// it covers every address counted so far.
	if s.sorted == nil || len(s.sorted) != int(s.count.Load()) {
		s.sorted = s.buildSorted()
	}
	return s.sorted
}

// SortedSeq is Sorted under an earlier name, kept only for cmd/bench.
func (s *ShardSet) SortedSeq() []Addr { return s.Sorted() }

// FrozenView is an immutable handle on a ShardSet's sorted view at one
// mutation epoch. Sorted-view rebuilds always allocate a fresh slice and
// leave the previous cache intact for existing readers (see
// buildSorted), so a frozen view keeps serving exactly the addresses
// it was taken over, no matter how the live set mutates afterwards —
// the pin an epoch snapshot needs so concurrent readers never observe a
// half-grown hitlist. The zero value is an empty view.
type FrozenView struct {
	addrs []Addr
}

// Freeze captures the current sorted view as an immutable snapshot. The
// capture costs a cached-view lookup (one rebuild at most, shared with
// every other sorted-view consumer), never a copy.
func (s *ShardSet) Freeze() FrozenView { return FrozenView{addrs: s.Sorted()} }

// Len returns the number of addresses in the snapshot.
func (v FrozenView) Len() int { return len(v.addrs) }

// Sorted returns the snapshot's addresses in ascending order. Read-only.
func (v FrozenView) Sorted() []Addr { return v.addrs }

// Seq is Sorted under an earlier name, kept only for cmd/bench.
func (v FrozenView) Seq() []Addr { return v.addrs }

// Contains reports membership in the snapshot by binary search. Unlike
// the live set's Contains it never sees addresses added after Freeze —
// epoch-consistent reads are the point of the handle.
func (v FrozenView) Contains(a Addr) bool {
	i := Search(v.addrs, a)
	return i < len(v.addrs) && v.addrs[i] == a
}

// buildSorted builds the sorted view from scratch: each shard's
// addresses are copied and sorted in parallel, and the sorted shards are
// k-way merged into a freshly allocated slice. The insertion slices are
// read through point-in-time views and never mutated, and the previous
// cache is left intact for existing readers. Called with sortedMu held.
func (s *ShardSet) buildSorted() []Addr {
	parts := make([][]Addr, NumShards)
	par.Ranges(NumShards, s.Workers(), 1, 1, func(_, slo, shi int) {
		for si := slo; si < shi; si++ {
			parts[si] = slices.Clone(s.shardView(si))
			sortAddrs(parts[si])
		}
	})
	return mergeSorted(parts)
}

// sortAddrs sorts a in ascending order: an iterative median-of-three
// quicksort with an insertion-sort tail. Hand-rolled deliberately:
// slices.SortFunc(a, Addr.Compare) measured 1.5× slower on 64 tails of
// 2,560 addresses (x86-64, Go 1.24; it calls the comparison through a
// func value, where Addr.Less inlines here); correctness is pinned
// against slices.SortFunc by TestSortColumnsProperty.
func sortAddrs(a []Addr) {
	lo, hi := 0, len(a)
	for hi-lo > 16 {
		// Median-of-three pivot: order elements lo, m, hi-1 and take the
		// middle one's value.
		m := int(uint(lo+hi) >> 1)
		if a[m].Less(a[lo]) {
			a[m], a[lo] = a[lo], a[m]
		}
		if a[hi-1].Less(a[m]) {
			a[hi-1], a[m] = a[m], a[hi-1]
			if a[m].Less(a[lo]) {
				a[m], a[lo] = a[lo], a[m]
			}
		}
		p := a[m]
		// Hoare partition around the pivot value.
		i, j := lo, hi-1
		for {
			for a[i].Less(p) {
				i++
			}
			for p.Less(a[j]) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1-lo < hi-(j+1) {
			sortAddrs(a[lo : j+1])
			lo = j + 1
		} else {
			sortAddrs(a[j+1 : hi])
			hi = j + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for k := i; k > lo && a[k].Less(a[k-1]); k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}

// mergeSorted k-way merges sorted shards into one ascending []Addr via a
// binary min-heap of shard cursors. Shards partition the address
// space by hash, so no address appears in two streams and the merge
// order is uniquely determined by the values.
func mergeSorted(parts [][]Addr) []Addr {
	total := 0
	type cursor struct {
		a []Addr
		i int
	}
	heap := make([]cursor, 0, len(parts))
	for _, t := range parts {
		total += len(t)
		if len(t) > 0 {
			heap = append(heap, cursor{a: t})
		}
	}
	out := make([]Addr, 0, total)
	less := func(x, y cursor) bool { return x.a[x.i].Less(y.a[y.i]) }
	siftDown := func(k int) {
		for {
			c := 2*k + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[k]) {
				return
			}
			heap[k], heap[c] = heap[c], heap[k]
			k = c
		}
	}
	for k := len(heap)/2 - 1; k >= 0; k-- {
		siftDown(k)
	}
	for len(heap) > 0 {
		c := &heap[0]
		out = append(out, c.a[c.i])
		c.i++
		if c.i == len(c.a) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}
