package ip6

import (
	"fmt"
	"math"
	"runtime"
	"sort"
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
// Layout: each of the NumShards shards holds parallel (hi, lo) column
// arrays in insertion order plus an open-addressed index of column
// positions over them, so membership, dedup and insertion order live in
// one structure. Batch mutation (AddSlice) partitions work by shard and
// runs shards on parallel workers; membership reads take only a
// shard-local read lock.
//
// Sorted view: Sorted/SortedSeq serve a cached globally-sorted view.
// The cache is invalidated by any write and rebuilt at most once per
// mutation epoch — parallel per-shard tail sorts, a k-way merge of the
// tails, and a linear merge with the previous cache — so N consumers of
// the sorted hitlist pay for one (incremental) sort, not N full ones.
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
	mu     sync.RWMutex
	hi, lo []uint64 // columnar storage, insertion order; append-only

	// index is the membership table over the columns: linear probing from
	// Hash64 >> shardBits (the low bits already picked the shard), each
	// slot 0 for empty or a column position + 1. Its length is 0 or a
	// power of two, and at most ¾ of its slots are taken.
	index []uint32

	// sortedN is the insertion-column prefix already covered by the
	// set's global sorted cache, touched only during rebuilds (under the
	// set's sortedMu, never under mu).
	sortedN int
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
			sh.hi = make([]uint64, 0, per)
			sh.lo = make([]uint64, 0, per)
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
		if sh.hi[p-1] == a.hi && sh.lo[p-1] == a.lo {
			return i, true
		}
	}
}

// insert appends a to the shard's columns unless present, reporting
// whether it was new; h is as for find. The caller holds the shard lock.
func (sh *shard) insert(a Addr, h uint64) bool {
	slot, ok := sh.find(a, h)
	if ok {
		return false
	}
	if n := len(sh.hi) + 1; n > len(sh.index)/4*3 {
		sh.reserve(n)
		slot, _ = sh.find(a, h)
	}
	sh.index[slot] = uint32(len(sh.hi)) + 1
	sh.hi = append(sh.hi, a.hi)
	sh.lo = append(sh.lo, a.lo)
	return true
}

// reserve sizes the index to hold n addresses at load ≤ ¾: it doubles the
// table as often as that takes and rehashes every column position into
// it once. A slot holds a position + 1 in 32 bits, so one shard holds at
// most 2³²−1 addresses.
func (sh *shard) reserve(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("ip6: ShardSet shard cannot index %d addresses: its uint32 column positions stop at 2^32-1", n))
	}
	if n <= len(sh.index)/4*3 {
		return
	}
	slots := max(len(sh.index), 8)
	for n > slots/4*3 {
		slots *= 2
	}
	sh.index = make([]uint32, slots)
	for p := range sh.hi {
		a := Addr{hi: sh.hi[p], lo: sh.lo[p]}
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

// Compact reallocates every shard's insertion columns at exact length:
// append growth leaves up to ~2× slack on a set built by many small
// batches, and a write-complete hitlist never uses it. Nothing else
// changes — membership, Each order, the sorted view and FrozenViews are
// as before, and a later write appends to the clipped columns as to any.
// Safe concurrently with readers, not with writers.
func (s *ShardSet) Compact() {
	par.Ranges(NumShards, s.Workers(), 1, 1, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			sh := &s.shards[si]
			sh.mu.Lock()
			if cap(sh.hi) > len(sh.hi) {
				sh.hi = append(make([]uint64, 0, len(sh.hi)), sh.hi...)
			}
			if cap(sh.lo) > len(sh.lo) {
				sh.lo = append(make([]uint64, 0, len(sh.lo)), sh.lo...)
			}
			sh.mu.Unlock()
		}
	})
}

// CompactCols is Compact under an earlier name, kept only because the
// benchmark harness (cmd/bench/replay.go) still calls it; delete it with
// that call.
func (s *ShardSet) CompactCols() { s.Compact() }

// MemBytes reports the set's resident heap footprint exactly, by
// capacity: the membership index at 4 bytes per slot, the insertion
// columns, and the cached sorted view if built. The breakdown drives the
// bytes-per-address audit in EXPERIMENTS.md.
func (s *ShardSet) MemBytes() (total, index, columns, sortedView int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		index += int64(len(sh.index)) * 4
		columns += int64(cap(sh.hi)+cap(sh.lo)) * 8
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
			k := len(sh.hi)
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
		v := s.shardView(i)
		for j := range v.Hi {
			if !fn(Addr{hi: v.Hi[j], lo: v.Lo[j]}) {
				return
			}
		}
	}
}

// shardView captures a shard's column headers under its read lock.
// Appends by concurrent writers go beyond the captured length and never
// move earlier elements, so iterating the view afterwards is safe.
func (s *ShardSet) shardView(i int) ShardCols {
	sh := &s.shards[i]
	sh.mu.RLock()
	v := ShardCols{Hi: sh.hi, Lo: sh.lo}
	sh.mu.RUnlock()
	return v
}

// ShardSeqs returns point-in-time columnar views of all shards (each a
// ShardCols), the unit of work for consumers that take the set shard by
// shard as address sequences — Store.Stats' attribution tally.
func (s *ShardSet) ShardSeqs() []AddrSeq {
	out := make([]AddrSeq, NumShards)
	for i := range out {
		out[i] = s.shardView(i)
	}
	return out
}

// Sorted returns the addresses in ascending numeric order. The returned
// slice is the set's cached sorted view, rebuilt at most once per
// mutation epoch and SHARED between callers: treat it as read-only. The
// rebuild sorts dirty shards' columns in parallel and k-way merges the
// shard streams in address order.
func (s *ShardSet) Sorted() []Addr {
	s.sortedMu.Lock()
	defer s.sortedMu.Unlock()
	// Writes only ever grow the set, so the cache is valid exactly when
	// it covers every address counted so far.
	n := int(s.count.Load())
	if s.sorted != nil && len(s.sorted) == n {
		return s.sorted
	}
	s.sorted = s.rebuildSorted()
	return s.sorted
}

// SortedSeq returns the cached sorted view as an AddrSeq, for consumers
// (e.g. the scan engine) that index targets without copying them.
func (s *ShardSet) SortedSeq() AddrSeq { return Addrs(s.Sorted()) }

// FrozenView is an immutable handle on a ShardSet's sorted view at one
// mutation epoch. Sorted-view rebuilds always allocate a fresh slice and
// leave the previous cache intact for existing readers (see
// rebuildSorted), so a frozen view keeps serving exactly the addresses
// it was taken over, no matter how the live set mutates afterwards —
// the pin an epoch snapshot needs so concurrent readers never observe a
// half-grown hitlist. The zero value is an empty view.
type FrozenView struct {
	addrs []Addr
}

// Freeze captures the current sorted view as an immutable snapshot. The
// capture costs a cached-view lookup (one incremental rebuild at most,
// shared with every other sorted-view consumer), never a copy.
func (s *ShardSet) Freeze() FrozenView { return FrozenView{addrs: s.Sorted()} }

// FrozenOf wraps an already-sorted address slice as a frozen view (test
// fixtures, ad-hoc snapshots). The slice must not be mutated afterwards.
func FrozenOf(sorted []Addr) FrozenView { return FrozenView{addrs: sorted} }

// Len returns the number of addresses in the snapshot.
func (v FrozenView) Len() int { return len(v.addrs) }

// Sorted returns the snapshot's addresses in ascending order. Read-only.
func (v FrozenView) Sorted() []Addr { return v.addrs }

// Seq returns the snapshot as an indexed sequence.
func (v FrozenView) Seq() AddrSeq { return Addrs(v.addrs) }

// At returns the i-th address of the snapshot.
func (v FrozenView) At(i int) Addr { return v.addrs[i] }

// Contains reports membership in the snapshot by binary search. Unlike
// the live set's Contains it never sees addresses added after Freeze —
// epoch-consistent reads are the point of the handle.
func (v FrozenView) Contains(a Addr) bool {
	i := sort.Search(len(v.addrs), func(k int) bool { return !v.addrs[k].Less(a) })
	return i < len(v.addrs) && v.addrs[i] == a
}

// rebuildSorted is the incremental sorted-view build: each shard's
// unsorted insertion tail is copied and sorted in parallel, the sorted
// tails are k-way merged, and the result is two-way merged with the
// previous global cache into a freshly allocated slice. Per rebuild that
// costs O(new·log(new)) sorting plus one linear merge, and the set's
// resident footprint stays at insertion columns + one sorted cache —
// no per-shard sorted mirrors. Called with sortedMu held; the insertion
// columns are read through point-in-time views and never mutated here,
// and the previous cache slice is left intact for existing readers.
func (s *ShardSet) rebuildSorted() []Addr {
	tails := make([]ShardCols, NumShards)
	par.Ranges(NumShards, s.Workers(), 1, 1, func(_, slo, shi int) {
		for si := slo; si < shi; si++ {
			sh := &s.shards[si]
			v := s.shardView(si)
			if n := len(v.Hi); sh.sortedN < n {
				tailHi := append([]uint64(nil), v.Hi[sh.sortedN:n]...)
				tailLo := append([]uint64(nil), v.Lo[sh.sortedN:n]...)
				sortColumns(tailHi, tailLo)
				tails[si] = ShardCols{Hi: tailHi, Lo: tailLo}
				sh.sortedN = n
			}
		}
	})
	fresh := mergeShardCols(tails)
	if len(s.sorted) == 0 {
		return fresh
	}
	if len(fresh) == 0 {
		return s.sorted
	}
	old := s.sorted
	out := make([]Addr, 0, len(old)+len(fresh))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if old[i].Less(fresh[j]) {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, fresh[j:]...)
	return out
}

// sortColumns sorts the parallel (hi, lo) arrays in ascending (hi, lo)
// order: an iterative median-of-three quicksort with an insertion-sort
// tail, working directly on the columns so no []Addr is materialized.
// Hand-rolled deliberately: a sort.Interface adapter over the same
// columns measures 2.4× slower at 2^20 elements (interface calls per
// comparison/swap dominate); correctness is pinned against sort.Slice by
// TestSortColumnsProperty.
func sortColumns(hi, lo []uint64) { quickCols(hi, lo, 0, len(hi)) }

func quickCols(hi, lo []uint64, a, b int) {
	for b-a > 16 {
		// Median-of-three pivot: order elements a, m, b-1 and take the
		// middle one's value.
		m := int(uint(a+b) >> 1)
		if colLess(hi, lo, m, a) {
			colSwap(hi, lo, m, a)
		}
		if colLess(hi, lo, b-1, m) {
			colSwap(hi, lo, b-1, m)
			if colLess(hi, lo, m, a) {
				colSwap(hi, lo, m, a)
			}
		}
		ph, pl := hi[m], lo[m]
		// Hoare partition around the pivot value.
		i, j := a, b-1
		for {
			for hi[i] < ph || (hi[i] == ph && lo[i] < pl) {
				i++
			}
			for hi[j] > ph || (hi[j] == ph && lo[j] > pl) {
				j--
			}
			if i >= j {
				break
			}
			colSwap(hi, lo, i, j)
			i++
			j--
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1-a < b-(j+1) {
			quickCols(hi, lo, a, j+1)
			a = j + 1
		} else {
			quickCols(hi, lo, j+1, b)
			b = j + 1
		}
	}
	for i := a + 1; i < b; i++ {
		for k := i; k > a && colLess(hi, lo, k, k-1); k-- {
			colSwap(hi, lo, k, k-1)
		}
	}
}

func colLess(hi, lo []uint64, i, j int) bool {
	return hi[i] < hi[j] || (hi[i] == hi[j] && lo[i] < lo[j])
}

func colSwap(hi, lo []uint64, i, j int) {
	hi[i], hi[j] = hi[j], hi[i]
	lo[i], lo[j] = lo[j], lo[i]
}

// mergeShardCols k-way merges sorted shard columns into one ascending
// []Addr via a binary min-heap of shard cursors. Shards partition the
// address space by hash, so no address appears in two streams and the
// merge order is uniquely determined by the values.
func mergeShardCols(views []ShardCols) []Addr {
	total := 0
	type cursor struct {
		hi, lo []uint64
		i      int
	}
	heap := make([]cursor, 0, len(views))
	for _, v := range views {
		total += len(v.Hi)
		if len(v.Hi) > 0 {
			heap = append(heap, cursor{hi: v.Hi, lo: v.Lo})
		}
	}
	out := make([]Addr, 0, total)
	less := func(x, y cursor) bool {
		return x.hi[x.i] < y.hi[y.i] || (x.hi[x.i] == y.hi[y.i] && x.lo[x.i] < y.lo[y.i])
	}
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
		out = append(out, Addr{hi: c.hi[c.i], lo: c.lo[c.i]})
		c.i++
		if c.i == len(c.hi) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}
