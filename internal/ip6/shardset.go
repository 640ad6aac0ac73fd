package ip6

import (
	"fmt"
	"runtime"
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
// next read — the shards copied into one slice and ordered by Sort —
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
	// Hash64 >> shardBits (the low bits already picked the shard). A slot
	// is 0 when empty; otherwise its low posBits hold a position in addrs
	// + 1 and its top tagBits the address's tag (slotTag), so a probe
	// rejects all but about 1 in 2^tagBits non-matching slots without
	// reading addrs. Its length is 0 or a power of two, and at most ¾ of
	// its slots are taken.
	index []uint32
}

// An index slot packs a tag above a position.
const (
	tagBits = 8
	posBits = 32 - tagBits
	posMask = 1<<posBits - 1
	// maxShardAddrs is the most addresses a shard indexes: a position + 1
	// must fit posBits.
	maxShardAddrs = posMask
)

// slotTag returns the tag of the address whose Hash64 >> shardBits is h,
// in slot position: the hash's top tagBits, which no table short enough
// to hold maxShardAddrs positions uses to pick a slot.
func slotTag(h uint64) uint32 { return uint32(h>>(64-shardBits-tagBits)) << posBits }

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
// shifted right by shardBits. A slot whose tag differs from a's is passed
// without touching addrs.
func (sh *shard) find(a Addr, h uint64) (slot uint64, ok bool) {
	if len(sh.index) == 0 {
		return 0, false
	}
	mask := uint64(len(sh.index) - 1)
	tag := slotTag(h)
	for i := h & mask; ; i = (i + 1) & mask {
		p := sh.index[i]
		if p == 0 {
			return i, false
		}
		if p&^posMask == tag && sh.addrs[p&posMask-1] == a {
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
	sh.index[slot] = slotTag(h) | (uint32(len(sh.addrs)) + 1)
	sh.addrs = append(sh.addrs, a)
	return true
}

// reserve sizes the index to hold n addresses at load ≤ ¾: it doubles the
// table as often as that takes and rehashes every position into it
// once. A slot keeps a position + 1 in posBits, so one shard holds at
// most maxShardAddrs = 2²⁴−1 addresses.
func (sh *shard) reserve(n int) {
	if uint64(n) > maxShardAddrs {
		panic(fmt.Sprintf("ip6: ShardSet shard cannot index %d addresses: its %d-bit positions stop at 2^%d-1", n, posBits, posBits))
	}
	if n <= len(sh.index)/4*3 {
		return
	}
	slots := max(len(sh.index), 8)
	for n > slots/4*3 {
		slots *= 2
	}
	sh.index = make([]uint32, slots)
	mask := uint64(slots - 1)
	// The addresses are distinct, so each goes to the first empty slot
	// of its probe run, as insert would put it.
	for p, a := range sh.addrs {
		h := a.Hash64() >> shardBits
		i := h & mask
		for sh.index[i] != 0 {
			i = (i + 1) & mask
		}
		sh.index[i] = slotTag(h) | (uint32(p) + 1)
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

// buildSorted builds the sorted view from scratch: the shards'
// addresses are copied side by side into a freshly allocated slice, shard
// ranges in parallel, and Sort orders it on the set's workers. The
// insertion slices are read through point-in-time views and never
// mutated, and the previous cache is left intact for existing readers.
// Called with sortedMu held.
func (s *ShardSet) buildSorted() []Addr {
	views := s.Shards()
	var off [NumShards + 1]int
	for i, v := range views {
		off[i+1] = off[i] + len(v)
	}
	out := make([]Addr, off[NumShards])
	w := s.Workers()
	par.Ranges(NumShards, w, 1, 1, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			copy(out[off[si]:], views[si])
		}
	})
	Sort(out, w)
	return out
}
