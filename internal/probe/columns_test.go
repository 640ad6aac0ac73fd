package probe

import (
	"sort"
	"sync"
	"testing"

	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/wire"
)

// checkColumnsMatchScan asserts that a columnar scan equals the per-probe
// reference result-for-result: OK, hop limit, send time, and the
// materialized SYN-ACK fingerprint.
func checkColumnsMatchScan(t *testing.T, ref []Result, cols *wire.ResultColumns) {
	t.Helper()
	for i, r := range ref {
		if cols.OK.Get(i) != r.OK {
			t.Fatalf("result %d: OK=%v want %v", i, cols.OK.Get(i), r.OK)
		}
		if cols.SentAt[i] != r.SentAt {
			t.Fatalf("result %d: sentAt=%d want %d", i, cols.SentAt[i], r.SentAt)
		}
		if !r.OK {
			continue
		}
		if cols.HopLimit[i] != r.HopLimit {
			t.Fatalf("result %d: hop=%d want %d", i, cols.HopLimit[i], r.HopLimit)
		}
		got := cols.TCPInfoAt(i)
		if (got == nil) != (r.TCP == nil) {
			t.Fatalf("result %d: TCP presence mismatch", i)
		}
		if got != nil && *got != *r.TCP {
			t.Fatalf("result %d: fingerprint %+v want %+v", i, *got, *r.TCP)
		}
	}
}

// TestScanColumnsMatchesScanSeq pins the batched engine against the
// per-probe reference across target counts (straddling bitset-word
// boundaries), worker counts, and retry settings, through the generic
// per-probe fallback responder.
func TestScanColumnsMatchesScanSeq(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 500, 1000} {
		targets := addrs(n)
		f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}, failBefore: 40_000}
		for i, a := range targets {
			var m wire.RespMask
			if i%3 == 0 {
				m.Set(wire.TCP80)
			}
			if i%4 == 0 {
				m.Set(wire.ICMPv6)
			}
			if m.Any() {
				f.up[a] = m
			}
		}
		for _, workers := range []int{1, 3, 16} {
			for _, retries := range []int{0, 3} {
				s := New(f, WithWorkers(workers), WithRetries(retries), WithRate(1000))
				ref := s.scanSeq(ip6.Addrs(targets), wire.TCP80, 2)
				var cols wire.ResultColumns
				cols.Reset(n, s.TCPTable())
				s.ScanColumns(ip6.Addrs(targets), wire.TCP80, 2, &cols)
				checkColumnsMatchScan(t, ref, &cols)
			}
		}
	}
}

// TestShardsWordAligned pins the scan engine's write-safety invariant:
// every shard boundary but the end is a multiple of 64, so no two
// workers ever write the same word of an OK bitset, and a scan that fits
// one word runs inline.
func TestShardsWordAligned(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 16} {
		s := New(&fakeResponder{}, WithWorkers(workers))
		for _, n := range []int{1, 64, 65, 500, 1000, 4097} {
			var mu sync.Mutex
			covered, calls := 0, 0
			s.shards(n, func(_, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				covered += hi - lo
				if lo%64 != 0 || (hi%64 != 0 && hi != n) {
					t.Errorf("workers=%d n=%d: shard [%d,%d) splits a bitset word", workers, n, lo, hi)
				}
			})
			if covered != n || calls > workers {
				t.Errorf("workers=%d n=%d: %d shards cover %d indices", workers, n, calls, covered)
			}
		}
	}
}

// TestScanColumnsSeqView runs the columnar scan through a non-slice
// AddrSeq view, exercising the gather path.
func TestScanColumnsSeqView(t *testing.T) {
	targets := addrs(700)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		if i%2 == 0 {
			var m wire.RespMask
			m.Set(wire.ICMPv6)
			f.up[a] = m
		}
	}
	s := New(f, WithWorkers(4))
	ref := s.scanSeq(ip6.Addrs(targets), wire.ICMPv6, 1)
	var cols wire.ResultColumns
	cols.Reset(len(targets), s.TCPTable())
	s.ScanColumns(view{targets}, wire.ICMPv6, 1, &cols)
	checkColumnsMatchScan(t, ref, &cols)
}

// view wraps a slice in an opaque AddrSeq so type switches cannot take
// the ip6.Addrs fast path.
type view struct{ a []ip6.Addr }

func (v view) Len() int          { return len(v.a) }
func (v view) At(i int) ip6.Addr { return v.a[i] }

// TestSweepSeqMatchesLegacy pins the bitset-folded sweep against the
// legacy per-probe fold at several worker counts.
func TestSweepSeqMatchesLegacy(t *testing.T) {
	targets := addrs(333)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		var m wire.RespMask
		if i%3 == 0 {
			m.Set(wire.TCP80)
		}
		if i%4 == 0 {
			m.Set(wire.ICMPv6)
			m.Set(wire.UDP53)
		}
		if i%7 == 0 {
			m.Set(wire.UDP443)
		}
		if m.Any() {
			f.up[a] = m
		}
	}
	for _, workers := range []int{1, 4, 16} {
		s := New(f, WithWorkers(workers))
		want := s.sweepSeq(ip6.Addrs(targets), 2)
		got := s.SweepSeqInto(ip6.Addrs(targets), 2, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mask %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSweepDaysMatchesSweep pins the streaming multi-day sweep (one
// reused buffer set) against independent per-day sweeps.
func TestSweepDaysMatchesSweep(t *testing.T) {
	targets := addrs(200)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		if i%2 == 0 {
			var m wire.RespMask
			m.Set(wire.ICMPv6)
			m.Set(wire.TCP443)
			f.up[a] = m
		}
	}
	s := New(f, WithWorkers(3))
	days := 0
	s.SweepDays(ip6.Addrs(targets), 4, 5, func(day int, masks []wire.RespMask) {
		days++
		want := s.SweepSeqInto(ip6.Addrs(targets), day, nil)
		for i := range want {
			if masks[i] != want[i] {
				t.Fatalf("day %d: mask %d = %v, want %v", day, i, masks[i], want[i])
			}
		}
	})
	if days != 5 {
		t.Fatalf("fn called %d times, want 5", days)
	}
}

// TestProbePairColumnsMatchesPairs pins the batched pair probing against
// the per-probe probePairsSeq.
func TestProbePairColumnsMatchesPairs(t *testing.T) {
	targets := addrs(90)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		if i%3 != 2 {
			var m wire.RespMask
			m.Set(wire.TCP80)
			f.up[a] = m
		}
	}
	for _, workers := range []int{1, 4, 16} {
		s := New(f, WithWorkers(workers))
		ref := s.probePairsSeq(ip6.Addrs(targets), wire.TCP80, 3)
		var cols PairColumns
		s.ProbePairColumns(ip6.Addrs(targets), wire.TCP80, 3, &cols)
		first := make([]Result, len(ref))
		second := make([]Result, len(ref))
		for i, pr := range ref {
			first[i], second[i] = pr.First, pr.Second
		}
		checkColumnsMatchScan(t, first, &cols.First)
		checkColumnsMatchScan(t, second, &cols.Second)
	}
}

// netsimScanner builds a scanner over a small simulated world plus its
// sorted hitlist-shaped target list — the end-to-end shape the batched
// engine is optimized for (sorted runs through aliased regions).
func netsimScanner(workers int) (*Scanner, []ip6.Addr) {
	world := netsim.New(netsim.Config{Seed: 42, Scale: 0.05, EpochDays: 7, Epochs: 6})
	var targets []ip6.Addr
	for _, h := range world.Hosts() {
		targets = append(targets, h.Addr)
	}
	for _, rec := range world.AliasRecords() {
		targets = append(targets, rec.Addr)
	}
	for _, rec := range world.StaleRecords() {
		targets = append(targets, rec.Addr)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	return New(world, WithWorkers(workers)), targets
}

// TestScanColumnsNetsimAcrossWorkers runs the real batched responder
// through the engine and pins it against the per-probe reference for
// several worker counts (64-alignment, batch boundaries, interval-run
// caching all under test at once).
func TestScanColumnsNetsimAcrossWorkers(t *testing.T) {
	sRef, targets := netsimScanner(1)
	day := 42
	for _, proto := range []wire.Proto{wire.ICMPv6, wire.TCP80} {
		ref := sRef.scanSeq(ip6.Addrs(targets), proto, day)
		for _, workers := range []int{1, 4, 16} {
			s, _ := netsimScanner(workers)
			var cols wire.ResultColumns
			cols.Reset(len(targets), s.TCPTable())
			s.ScanColumns(ip6.Addrs(targets), proto, day, &cols)
			checkColumnsMatchScan(t, ref, &cols)
		}
	}
}

// BenchmarkSweep measures the batched five-protocol sweep over a sorted
// netsim hitlist — the engine's daily-scan hot path.
func BenchmarkSweep(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SweepSeqInto(ip6.Addrs(targets), 42, nil)
	}
}

// BenchmarkSweepLegacy is the same sweep on the pre-columnar per-probe
// path: five []Result slices materialized and folded.
func BenchmarkSweepLegacy(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sweepSeq(ip6.Addrs(targets), 42)
	}
}

// BenchmarkProbeBatch measures a single-protocol columnar scan through
// the batched responder.
func BenchmarkProbeBatch(b *testing.B) {
	s, targets := netsimScanner(8)
	var cols wire.ResultColumns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols.Reset(len(targets), s.TCPTable())
		s.ScanColumns(ip6.Addrs(targets), wire.TCP80, 42, &cols)
	}
}

// BenchmarkProbeBatchLegacy is the same scan via the per-probe scanSeq.
func BenchmarkProbeBatchLegacy(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scanSeq(ip6.Addrs(targets), wire.TCP80, 42)
	}
}
