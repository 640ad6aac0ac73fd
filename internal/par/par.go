// Package par is the repo's one data-parallel fan-out: Ranges splits an
// index range into contiguous chunks, one goroutine each, and Queue hands
// indices of uneven cost to goroutines one at a time. Every parallel scan
// in the tree — scanner shards, history column merges, shard-set
// rebuilds, nybble tallies, k-means assignment, per-group fingerprints,
// the elbow sweep — goes through one of the two, so chunk sizing, the
// inline small-input path and word alignment are decided in one place.
package par

import (
	"sync"
	"sync/atomic"
)

// Ranges splits [0,n) into at most workers contiguous ranges and runs
// fn(c, lo, hi) on each concurrently, returning when all are done. c is
// the chunk index, dense from 0 in ascending lo order and always below
// max(workers, 1), so callers collect per-chunk partials in a
// workers-sized slice.
//
// minChunk bounds the fan-out from below: no range is shorter than
// minChunk except the last, so inputs under 2·minChunk never pay for a
// goroutine. align rounds the chunk length up to a multiple of itself,
// so every boundary but n is a multiple of align — workers writing a
// packed bitset pass 64 and never share a word. Values below 1 mean 1.
//
// When the split yields a single range, fn runs inline on the caller's
// goroutine. Callers must not depend on where the boundaries fall: per-
// chunk work is either independent per index or merged by an operation
// that is insensitive to the chunking.
func Ranges(n, workers, minChunk, align int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	minChunk = max(minChunk, 1)
	align = max(align, 1)
	workers = max(min(workers, n/minChunk), 1)
	chunk := (n + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	if chunk >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+chunk {
		wg.Add(1)
		go func(c, lo int) {
			defer wg.Done()
			fn(c, lo, min(lo+chunk, n))
		}(c, lo)
	}
	wg.Wait()
}

// Queue runs fn(c, i, inner) for every i in [0,n) on up to workers
// goroutines, each pulling the next ascending index from a shared
// counter: the fan-out for items of uneven cost (heavy-tailed group
// sizes, k-means runs that grow with k), where Ranges' equal chunks would
// idle the goroutines that drew cheap items. c names the goroutine making
// the call, always below max(workers, 1), for per-goroutine scratch. When
// workers exceeds n, inner = ceil(workers/n) is each call's share of the
// surplus, to fan out inside the item; otherwise inner is 1.
//
// When only one goroutine would start, fn runs inline on the caller's
// goroutine. Which goroutine gets which index is up to the scheduler, so
// callers write results per index and never depend on c beyond scratch.
func Queue(n, workers int, fn func(c, i, inner int)) {
	if n <= 0 {
		return
	}
	inner := 1
	if workers > n {
		inner = (workers + n - 1) / n
	}
	w := max(min(workers, n), 1)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i, inner)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(c, i, inner)
			}
		}()
	}
	wg.Wait()
}
