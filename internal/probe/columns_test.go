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

// mixedFake answers a protocol mix over targets, one Probe call per
// destination and lane (fakeResponder's adapter), and drops every probe
// sent before failBefore, so retries change results.
func mixedFake(targets []ip6.Addr, failBefore wire.Time) *fakeResponder {
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}, failBefore: failBefore}
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
			m.Set(wire.TCP443)
		}
		if m.Any() {
			f.up[a] = m
		}
	}
	return f
}

// grid runs fn for every engine configuration the lane scans are pinned
// at — retries {0, 2} × workers {1, 2, 4, 16} — handing it, beside the
// scanner under test, a one-worker scanner of the same retry count for
// the per-probe reference (whose results do not depend on workers).
func grid(r wire.Responder, fn func(ref, s *Scanner, workers, retries int)) {
	for _, retries := range []int{0, 2} {
		ref := New(r, WithWorkers(1), WithRetries(retries))
		for _, workers := range []int{1, 2, 4, 16} {
			fn(ref, New(r, WithWorkers(workers), WithRetries(retries)), workers, retries)
		}
	}
}

// TestScanColumnsMatchesScanSeq pins the batched engine against the
// per-probe reference across target counts (straddling bitset-word
// boundaries), worker counts and retry settings — as one lane
// (ScanColumns) and as several at once (ScanProtos, every lane against
// its own per-probe scan) — through the plain per-probe responder, whose
// batches take the fallback loop, and through netsim's batch responder.
func TestScanColumnsMatchesScanSeq(t *testing.T) {
	protos := []wire.Proto{wire.TCP80, wire.ICMPv6, wire.UDP53}
	check := func(r wire.Responder, targets []ip6.Addr, day int) {
		n := len(targets)
		refs := map[int][][]Result{} // by retries, per protocol
		grid(r, func(ref, s *Scanner, workers, retries int) {
			if refs[retries] == nil {
				for _, p := range protos {
					refs[retries] = append(refs[retries], ref.scanSeq(targets, p, day))
				}
			}
			var one wire.ResultColumns
			one.Reset(n, s.TCPTable())
			s.ScanColumns(targets, protos[0], day, &one)
			checkColumnsMatchScan(t, refs[retries][0], &one)
			cols := make([]wire.ResultColumns, len(protos))
			for k := range cols {
				cols[k].Reset(n, s.TCPTable())
			}
			s.ScanProtos(targets, protos, day, cols)
			for k := range cols {
				checkColumnsMatchScan(t, refs[retries][k], &cols[k])
			}
		})
	}
	for _, n := range []int{0, 1, 63, 64, 65, 500, 1000} {
		targets := addrs(n)
		check(mixedFake(targets, 400), targets, 2)
	}
	world, targets := netsimWorld()
	check(world, targets, 42)
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

// TestSweepSeqMatchesLegacy pins the five-lane sweep against the legacy
// per-probe fold — five independent per-probe scans — over the engine
// grid, through the plain responder's fallback loop and through netsim's
// batch responder.
func TestSweepSeqMatchesLegacy(t *testing.T) {
	check := func(r wire.Responder, targets []ip6.Addr, day int) {
		want := map[int][]wire.RespMask{}
		grid(r, func(ref, s *Scanner, workers, retries int) {
			if want[retries] == nil {
				want[retries] = ref.sweepSeq(targets, day)
			}
			got := s.SweepSeqInto(targets, day, nil)
			for i, w := range want[retries] {
				if got[i] != w {
					t.Fatalf("workers=%d retries=%d: mask %d = %v, want %v", workers, retries, i, got[i], w)
				}
			}
		})
	}
	targets := addrs(333)
	check(mixedFake(targets, 1_000), targets, 2)
	world, hitlist := netsimWorld()
	check(world, hitlist, 42)
}

// TestSweepDaysMatchesSweep pins the streaming multi-day sweep (one
// reused buffer set) against independent per-day sweeps over the engine
// grid.
func TestSweepDaysMatchesSweep(t *testing.T) {
	targets := addrs(200)
	grid(mixedFake(targets, 600), func(_, s *Scanner, workers, retries int) {
		days := 0
		s.SweepDays(targets, 4, 5, func(day int, masks []wire.RespMask) {
			days++
			want := s.SweepSeqInto(targets, day, nil)
			for i := range want {
				if masks[i] != want[i] {
					t.Fatalf("workers=%d retries=%d day %d: mask %d = %v, want %v", workers, retries, day, i, masks[i], want[i])
				}
			}
		})
		if days != 5 {
			t.Fatalf("fn called %d times, want 5", days)
		}
	})
}

// TestProbePairColumnsMatchesPairs pins the two-lane pair probing against
// the per-probe probePairsSeq over the engine grid — pairs are never
// retried, whatever the scanner's retry count — through the plain
// responder's fallback loop and through netsim's batch responder.
func TestProbePairColumnsMatchesPairs(t *testing.T) {
	check := func(r wire.Responder, targets []ip6.Addr, day int) {
		var first, second []Result
		grid(r, func(ref, s *Scanner, workers, retries int) {
			if first == nil {
				for _, pr := range ref.probePairsSeq(targets, wire.TCP80, day) {
					first, second = append(first, pr.First), append(second, pr.Second)
				}
			}
			var cols PairColumns
			s.ProbePairColumns(targets, wire.TCP80, day, &cols)
			checkColumnsMatchScan(t, first, &cols.First)
			checkColumnsMatchScan(t, second, &cols.Second)
		})
	}
	targets := addrs(90)
	check(mixedFake(targets, 300), targets, 3)
	world, hitlist := netsimWorld()
	check(world, hitlist, 42)
}

// netsimWorld returns a small simulated world — a batch responder — and
// its sorted hitlist-shaped target list: the end-to-end shape the batched
// engine is optimized for (sorted runs through aliased regions). Built
// once; the world is read-only.
var netsimWorld = sync.OnceValues(func() (*netsim.Internet, []ip6.Addr) {
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
	return world, targets
})

// netsimScanner builds a scanner over netsimWorld.
func netsimScanner(workers int) (*Scanner, []ip6.Addr) {
	world, targets := netsimWorld()
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
		ref := sRef.scanSeq(targets, proto, day)
		for _, workers := range []int{1, 4, 16} {
			s, _ := netsimScanner(workers)
			var cols wire.ResultColumns
			cols.Reset(len(targets), s.TCPTable())
			s.ScanColumns(targets, proto, day, &cols)
			checkColumnsMatchScan(t, ref, &cols)
		}
	}
}

// BenchmarkSweep measures the five-lane sweep over a sorted netsim
// hitlist — the engine's daily-scan hot path: one scanLanes pass, every
// target handed to the responder once with all five protocols.
func BenchmarkSweep(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SweepSeqInto(targets, 42, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(targets)*wire.NumProtos), "ns/probe")
}

// BenchmarkSweepLegacy is the same sweep on the pre-columnar per-probe
// path: five []Result slices materialized and folded.
func BenchmarkSweepLegacy(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sweepSeq(targets, 42)
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
		s.ScanColumns(targets, wire.TCP80, 42, &cols)
	}
}

// BenchmarkProbeBatchLegacy is the same scan via the per-probe scanSeq.
func BenchmarkProbeBatchLegacy(b *testing.B) {
	s, targets := netsimScanner(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scanSeq(targets, wire.TCP80, 42)
	}
}
