package probe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
		got := wire.TCPInfo{TCPFingerprint: cols.TCP[i], TSVal: cols.TSVal[i]}
		if got.Valid() != (r.TCP != nil) {
			t.Fatalf("result %d: TCP presence mismatch", i)
		}
		if r.TCP != nil && got != *r.TCP {
			t.Fatalf("result %d: fingerprint %+v want %+v", i, got, *r.TCP)
		}
	}
}

// mixedFake answers a protocol mix over targets, one Probe call per
// destination and lane (fakeResponder's adapter), and drops every probe
// sent before failBefore, so answers depend on send times.
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

// grid runs fn for every worker count the lane scans are pinned at —
// {1, 2, 4, 16} — handing it, beside the scanner under test, a
// one-worker scanner for the per-probe reference (whose results do not
// depend on workers).
func grid(r wire.Responder, fn func(ref, s *Scanner, workers int)) {
	ref := New(r, WithWorkers(1))
	for _, workers := range []int{1, 2, 4, 16} {
		fn(ref, New(r, WithWorkers(workers)), workers)
	}
}

// TestScanColumnsMatchesScanSeq pins the batched engine against the
// per-probe reference across target counts (straddling bitset-word
// boundaries) and worker counts — as one lane
// (ScanColumns) and as several at once (ScanProtos, every lane against
// its own per-probe scan) — through the plain per-probe responder, whose
// batches take the fallback loop, and through netsim's batch responder.
func TestScanColumnsMatchesScanSeq(t *testing.T) {
	protos := []wire.Proto{wire.TCP80, wire.ICMPv6, wire.UDP53}
	check := func(r wire.Responder, targets []ip6.Addr, day int) {
		n := len(targets)
		var refs [][]Result // per protocol
		grid(r, func(ref, s *Scanner, workers int) {
			if refs == nil {
				for _, p := range protos {
					refs = append(refs, ref.scanSeq(targets, p, day))
				}
			}
			var one wire.ResultColumns
			one.Reset(n)
			s.ScanColumns(targets, protos[0], day, &one)
			checkColumnsMatchScan(t, refs[0], &one)
			cols := make([]wire.ResultColumns, len(protos))
			for k := range cols {
				cols[k].Reset(n)
			}
			s.ScanProtos(targets, protos, day, cols)
			for k := range cols {
				checkColumnsMatchScan(t, refs[k], &cols[k])
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
		var want []wire.RespMask
		grid(r, func(ref, s *Scanner, workers int) {
			if want == nil {
				want = ref.sweepSeq(targets, day)
			}
			got := s.SweepSeqInto(targets, day, nil)
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("workers=%d: mask %d = %v, want %v", workers, i, got[i], w)
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
	grid(mixedFake(targets, 600), func(_, s *Scanner, workers int) {
		days := 0
		s.SweepDays(targets, 4, 5, func(day int, masks []wire.RespMask) {
			days++
			want := s.SweepSeqInto(targets, day, nil)
			for i := range want {
				if masks[i] != want[i] {
					t.Fatalf("workers=%d day %d: mask %d = %v, want %v", workers, day, i, masks[i], want[i])
				}
			}
		})
		if days != 5 {
			t.Fatalf("fn called %d times, want 5", days)
		}
	})
}

// TestProbePairColumnsMatchesPairs pins the two-lane pair probing against
// the per-probe probePairsSeq over the engine grid, through the plain
// responder's fallback loop and through netsim's batch responder.
func TestProbePairColumnsMatchesPairs(t *testing.T) {
	check := func(r wire.Responder, targets []ip6.Addr, day int) {
		var first, second []Result
		grid(r, func(ref, s *Scanner, workers int) {
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
			cols.Reset(len(targets))
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
		cols.Reset(len(targets))
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

// pairDigest hashes both lanes of one pair probing, column by column:
// send time, OK, hop limit, every fingerprint field and the timestamp
// value.
func pairDigest(cols *PairColumns) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range []*wire.ResultColumns{&cols.First, &cols.Second} {
		for i, at := range c.SentAt {
			put(uint64(at))
			if !c.OK.Get(i) {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1, c.HopLimit[i]})
			fp := c.TCP[i]
			if !fp.Valid() {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			h.Write([]byte(fp.Options()))
			put(uint64(fp.MSS)<<32 | uint64(fp.WScale)<<16 | uint64(fp.WSize))
			if fp.TSPresent {
				put(1<<32 | uint64(c.TSVal[i]))
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedPairDigest is pairDigest over netsimWorld's targets on TCP/80,
// day 42, captured when the fingerprint column held refs into an intern
// table whose fields the digest read back.
const pinnedPairDigest = "1e50e509e7a3479d427bcfe12b3775af14d12d52e4f1f660db17f2fb70f02cba"

// TestProbePairColumnsPinned pins the pair columns over the netsim
// targets at several worker counts.
func TestProbePairColumnsPinned(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s, targets := netsimScanner(workers)
		var cols PairColumns
		s.ProbePairColumns(targets, wire.TCP80, 42, &cols)
		if got := pairDigest(&cols); got != pinnedPairDigest {
			t.Fatalf("workers=%d: pair columns over %d targets digest to %s, want %s", workers, len(targets), got, pinnedPairDigest)
		}
	}
}
