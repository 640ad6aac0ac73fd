package par

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

type span struct{ c, lo, hi int }

func collect(n, workers, minChunk, align int) []span {
	var mu sync.Mutex
	var got []span
	Ranges(n, workers, minChunk, align, func(c, lo, hi int) {
		mu.Lock()
		got = append(got, span{c, lo, hi})
		mu.Unlock()
	})
	byC := make([]span, len(got))
	for _, s := range got {
		byC[s.c] = s
	}
	return byC
}

// TestRangesPartition pins the contract every caller leans on: the
// ranges tile [0,n) exactly once in chunk-index order, there are never
// more of them than workers, none but the last is shorter than minChunk,
// and every interior boundary is a multiple of align.
func TestRangesPartition(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000, 1024, 4097, 10_000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 16, 20_000} {
			for _, minChunk := range []int{0, 1, 64, 1024} {
				for _, align := range []int{0, 1, 64} {
					got := collect(n, workers, minChunk, align)
					if n == 0 {
						if len(got) != 0 {
							t.Fatalf("n=0: fn called %d times", len(got))
						}
						continue
					}
					if len(got) > max(workers, 1) {
						t.Fatalf("n=%d workers=%d: %d chunks", n, workers, len(got))
					}
					next := 0
					for c, s := range got {
						if s.c != c || s.lo != next || s.hi <= s.lo {
							t.Fatalf("n=%d w=%d min=%d align=%d: chunk %d = %+v, want lo %d", n, workers, minChunk, align, c, s, next)
						}
						last := c == len(got)-1
						if !last && s.hi-s.lo < minChunk {
							t.Fatalf("n=%d w=%d min=%d: chunk %d is %d long", n, workers, minChunk, c, s.hi-s.lo)
						}
						if !last && align > 1 && s.hi%align != 0 {
							t.Fatalf("n=%d w=%d align=%d: boundary %d not aligned", n, workers, align, s.hi)
						}
						next = s.hi
					}
					if next != n {
						t.Fatalf("n=%d w=%d min=%d align=%d: ranges end at %d", n, workers, minChunk, align, next)
					}
				}
			}
		}
	}
}

// TestRangesAlignedBitsetWrites is the safety property behind align: 16
// workers setting every bit of a packed bitset through 64-aligned ranges
// never write the same word, so no bit is lost (and -race stays quiet).
func TestRangesAlignedBitsetWrites(t *testing.T) {
	for _, n := range []int{65, 1000, 4097} {
		words := make([]uint64, (n+63)/64)
		Ranges(n, 16, 1, 64, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				words[i>>6] |= 1 << (i & 63)
			}
		})
		for i := 0; i < n; i++ {
			if words[i>>6]>>(i&63)&1 == 0 {
				t.Fatalf("n=%d: bit %d lost", n, i)
			}
		}
	}
}

// onCallerStack reports whether the test function that called Ranges is
// on the current goroutine's stack.
func onCallerStack(name string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, name) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestRangesSmallInputInline pins the inline path: one worker, an input
// below two minimum chunks, or one below the alignment all run fn on the
// caller's goroutine; a real split does not.
func TestRangesSmallInputInline(t *testing.T) {
	for _, tc := range []struct{ n, workers, minChunk, align int }{
		{100_000, 1, 1, 1},
		{2047, 16, 1024, 1},
		{64, 16, 1, 64},
	} {
		calls := 0
		Ranges(tc.n, tc.workers, tc.minChunk, tc.align, func(c, lo, hi int) {
			calls++
			if c != 0 || lo != 0 || hi != tc.n {
				t.Errorf("%+v: inline call got (%d,%d,%d)", tc, c, lo, hi)
			}
			if !onCallerStack("TestRangesSmallInputInline") {
				t.Errorf("%+v: fn ran on a spawned goroutine", tc)
			}
		})
		if calls != 1 {
			t.Errorf("%+v: fn called %d times, want 1", tc, calls)
		}
	}
	Ranges(2048, 16, 1024, 1, func(_, _, _ int) {
		if onCallerStack("TestRangesSmallInputInline") {
			t.Error("two-chunk split ran inline")
		}
	})
}

// TestQueueRunsEachIndexOnce pins Queue's contract: every index of [0,n)
// runs exactly once, c stays below max(workers, 1), and inner is
// ceil(workers/n) when workers exceed n, else 1.
func TestQueueRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 16} {
			wantInner := 1
			if n > 0 && workers > n {
				wantInner = (workers + n - 1) / n
			}
			var mu sync.Mutex
			runs := make([]int, n)
			Queue(n, workers, func(c, i, inner int) {
				mu.Lock()
				defer mu.Unlock()
				runs[i]++
				if c < 0 || c >= max(workers, 1) {
					t.Errorf("n=%d workers=%d: c = %d", n, workers, c)
				}
				if inner != wantInner {
					t.Errorf("n=%d workers=%d: inner = %d, want %d", n, workers, inner, wantInner)
				}
			})
			for i, r := range runs {
				if r != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, r)
				}
			}
		}
	}
}

// TestQueueInline pins the inline path: one worker, or one item however
// many workers, runs every call on the caller's goroutine, in ascending
// order, as c = 0; a real fan-out does not run inline.
func TestQueueInline(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{100, 1}, {100, 0}, {1, 16}} {
		next := 0
		Queue(tc.n, tc.workers, func(c, i, _ int) {
			if c != 0 || i != next {
				t.Errorf("%+v: inline call (c=%d, i=%d), want (0, %d)", tc, c, i, next)
			}
			next++
			if !onCallerStack("TestQueueInline") {
				t.Errorf("%+v: fn ran on a spawned goroutine", tc)
			}
		})
		if next != tc.n {
			t.Errorf("%+v: %d calls, want %d", tc, next, tc.n)
		}
	}
	Queue(2, 2, func(_, _, _ int) {
		if onCallerStack("TestQueueInline") {
			t.Error("a two-goroutine queue ran inline")
		}
	})
}
