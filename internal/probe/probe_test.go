package probe

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// fakeResponder answers deterministically from a map and counts probes.
type fakeResponder struct {
	up     map[ip6.Addr]wire.RespMask
	probes atomic.Int64
	// failBefore drops every probe sent before it.
	failBefore wire.Time
}

// ProbeLanes is the per-probe adapter onto the batched contract: one
// Probe call per destination and lane, written into the lane's columns.
func (f *fakeResponder) ProbeLanes(dsts []ip6.Addr, day int, lanes []wire.Lane, base int) {
	for k, dst := range dsts {
		for li := range lanes {
			l := &lanes[li]
			r := f.Probe(dst, l.Proto, day, l.At[k])
			if !r.OK {
				continue
			}
			i := base + k
			l.Out.OK.Set(i)
			if l.Out.HopLimit != nil {
				l.Out.HopLimit[i] = r.HopLimit
			}
			if r.TCP != nil && l.Out.TCP != nil {
				l.Out.TCP[i] = r.TCP.TCPFingerprint
				l.Out.TSVal[i] = r.TCP.TSVal
			}
		}
	}
}

// Probe answers one probe: up addresses answer on their protocols, with
// a SYN-ACK carrying the send time as its timestamp on TCP.
func (f *fakeResponder) Probe(dst ip6.Addr, p wire.Proto, day int, at wire.Time) wire.Response {
	f.probes.Add(1)
	if at < f.failBefore {
		return wire.Response{}
	}
	if m, ok := f.up[dst]; ok && m.Has(p) {
		r := wire.Response{OK: true, HopLimit: 58}
		if p.IsTCP() {
			r.TCP = &wire.TCPInfo{TCPFingerprint: wire.NewTCPFingerprint(0, 1440, 0, 0, true), TSVal: uint32(at)}
		}
		return r
	}
	return wire.Response{}
}

func addrs(n int) []ip6.Addr {
	out := make([]ip6.Addr, n)
	base := ip6.MustParseAddr("2001:db8::")
	for i := range out {
		out[i] = ip6.AddrFromUint64(base.Hi(), uint64(i)+1)
	}
	return out
}

// scan runs one full-column production scan.
func scan(s *Scanner, targets []ip6.Addr, proto wire.Proto, day int) *wire.ResultColumns {
	var cols wire.ResultColumns
	cols.Reset(len(targets))
	s.ScanColumns(targets, proto, day, &cols)
	return &cols
}

// sweep runs one five-protocol production sweep.
func sweep(s *Scanner, targets []ip6.Addr, day int) []wire.RespMask {
	return s.SweepSeqInto(targets, day, nil)
}

// TestScannerMethodSet pins the production surface: exactly the five
// columnar entry points. A re-added slice adapter or per-probe twin
// (Scan, Sweep, SweepSeq, ProbePairs, …) fails here; the per-probe
// oracle in ref_test.go is unexported for the same reason.
func TestScannerMethodSet(t *testing.T) {
	want := []string{"ProbePairColumns", "ScanColumns", "ScanProtos", "SweepDays", "SweepSeqInto"}
	typ := reflect.TypeOf((*Scanner)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Scanner methods = %v, want exactly %v", got, want)
	}
}

func TestScanBasic(t *testing.T) {
	targets := addrs(100)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for i, a := range targets {
		if i%2 == 0 {
			var m wire.RespMask
			m.Set(wire.ICMPv6)
			f.up[a] = m
		}
	}
	s := New(f, WithWorkers(4))
	res := scan(s, targets, wire.ICMPv6, 0)
	if len(res.SentAt) != 100 {
		t.Fatalf("got %d results", len(res.SentAt))
	}
	// Column i describes target i: exactly the even targets are up.
	for i := range targets {
		if want := i%2 == 0; res.OK.Get(i) != want {
			t.Errorf("target %d OK=%v want %v", i, res.OK.Get(i), want)
		}
	}
}

// TestScanDeterministicAcrossWorkers pins the engine's core contract:
// ScanColumns, SweepSeqInto and ProbePairColumns return identical results
// for any worker count, because virtual send times follow permutation
// position, not goroutine scheduling.
func TestScanDeterministicAcrossWorkers(t *testing.T) {
	targets := addrs(500)
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
		if m.Any() {
			f.up[a] = m
		}
	}
	ref := New(f, WithWorkers(1))
	refScan := scan(ref, targets, wire.TCP80, 2)
	refSweep := sweep(ref, targets, 2)
	var refPairs PairColumns
	ref.ProbePairColumns(targets, wire.TCP80, 2, &refPairs)
	for _, workers := range []int{1, 4, 16} {
		s := New(f, WithWorkers(workers))
		res := scan(s, targets, wire.TCP80, 2)
		for i := range targets {
			if refScan.OK.Get(i) != res.OK.Get(i) || refScan.SentAt[i] != res.SentAt[i] {
				t.Fatalf("workers=%d: result %d differs from serial scan", workers, i)
			}
			if refScan.TSVal[i] != res.TSVal[i] {
				t.Fatalf("workers=%d: fingerprint %d differs", workers, i)
			}
		}
		masks := sweep(s, targets, 2)
		for i := range refSweep {
			if masks[i] != refSweep[i] {
				t.Fatalf("workers=%d: sweep mask %d = %v, want %v", workers, i, masks[i], refSweep[i])
			}
		}
		var pairs PairColumns
		s.ProbePairColumns(targets, wire.TCP80, 2, &pairs)
		for i := range targets {
			if pairs.First.SentAt[i] != refPairs.First.SentAt[i] ||
				pairs.Second.SentAt[i] != refPairs.Second.SentAt[i] ||
				pairs.First.OK.Get(i) != refPairs.First.OK.Get(i) {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}

// TestScanRateSpacing pins the send clock: the paper's 100k pps, so the
// probes of a scan take the slots 0, 10, 20, … µs, each exactly once.
func TestScanRateSpacing(t *testing.T) {
	targets := addrs(10)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithWorkers(1))
	res := scan(s, targets, wire.ICMPv6, 0)
	seen := map[wire.Time]bool{}
	for _, at := range res.SentAt {
		if at%10 != 0 || at >= 10*wire.Time(len(targets)) {
			t.Errorf("send time %d is not a slot of the 10μs grid", at)
		}
		if seen[at] {
			t.Errorf("duplicate send slot %d", at)
		}
		seen[at] = true
	}
}

func TestSweep(t *testing.T) {
	targets := addrs(50)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	var m wire.RespMask
	m.Set(wire.ICMPv6)
	m.Set(wire.UDP53)
	f.up[targets[7]] = m
	s := New(f, WithWorkers(3))
	masks := sweep(s, targets, 0)
	if !masks[7].Has(wire.ICMPv6) || !masks[7].Has(wire.UDP53) || masks[7].Has(wire.TCP80) {
		t.Errorf("mask[7] = %v", masks[7])
	}
	if masks[8].Any() {
		t.Errorf("mask[8] = %v, want empty", masks[8])
	}
}

func TestProbePairs(t *testing.T) {
	targets := addrs(30)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	for _, a := range targets {
		var m wire.RespMask
		m.Set(wire.TCP80)
		f.up[a] = m
	}
	s := New(f, WithWorkers(4))
	var pairs PairColumns
	s.ProbePairColumns(targets, wire.TCP80, 0, &pairs)
	for i := range targets {
		if !pairs.First.OK.Get(i) || !pairs.Second.OK.Get(i) {
			t.Fatalf("pair %d not answered", i)
		}
		if pairs.Second.SentAt[i] <= pairs.First.SentAt[i] {
			t.Errorf("pair %d out of order", i)
		}
		if !pairs.First.TCP[i].Valid() || !pairs.Second.TCP[i].Valid() {
			t.Fatalf("pair %d missing fingerprints", i)
		}
	}
}

// TestPermutationIsBijective: every index appears exactly once.
func TestPermutationIsBijective(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		size := int(n)%2000 + 1
		p := NewPermutation(size, seed)
		if p.Len() != size {
			return false
		}
		seen := make([]bool, size)
		for i := 0; i < size; i++ {
			v := p.At(i)
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPermutationScatters: consecutive probe positions should not be
// consecutive target indices (that is the whole point).
func TestPermutationScatters(t *testing.T) {
	p := NewPermutation(10000, 7)
	adjacent := 0
	for i := 1; i < 10000; i++ {
		d := p.At(i) - p.At(i-1)
		if d == 1 || d == -1 {
			adjacent++
		}
	}
	if adjacent > 100 {
		t.Errorf("%d adjacent pairs out of 9999 — not scattering", adjacent)
	}
}

func TestPermutationEmptyAndOne(t *testing.T) {
	p0 := NewPermutation(0, 3)
	if p0.Len() != 0 {
		t.Error("empty permutation length")
	}
	p1 := NewPermutation(1, 3)
	if p1.At(0) != 0 {
		t.Error("singleton permutation")
	}
}

// TestInversePermutationMatchesOracle pins the directly built inverse
// against the materialized forward order — inv[perm.At(seq)] == seq at
// every position — for random sizes and seeds, the degenerate sizes, and
// a dirty reused buffer.
func TestInversePermutationMatchesOracle(t *testing.T) {
	check := func(size int, seed uint64, buf []uint32) bool {
		p := NewPermutation(size, seed)
		inv := InversePermutation(buf, size, seed)
		if len(inv) != size {
			return false
		}
		for seq := 0; seq < size; seq++ {
			if inv[p.At(seq)] != uint32(seq) {
				return false
			}
		}
		return true
	}
	f := func(n uint16, seed uint64) bool { return check(int(n)%2000+1, seed, nil) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	dirty := make([]uint32, 4096)
	for _, size := range []int{0, 1, 2, 3, 64, 1000, 1024, 1025, 4096} {
		for i := range dirty {
			dirty[i] = 0xdeadbeef
		}
		if !check(size, 7, dirty) || !check(size, 0x96^uint64(size)<<32, nil) {
			t.Errorf("size %d: inverse differs from the oracle", size)
		}
	}
	if inv := InversePermutation(dirty, 100, 3); &inv[0] != &dirty[0] {
		t.Error("a large enough buffer was not reused")
	}
}

func TestProbeCount(t *testing.T) {
	targets := addrs(100)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithWorkers(2))
	scan(s, targets, wire.ICMPv6, 0)
	if got := f.probes.Load(); got != 100 {
		t.Errorf("sent %d probes, want 100", got)
	}
	f.probes.Store(0)
	sweep(s, targets, 0)
	if got := f.probes.Load(); got != 500 {
		t.Errorf("sweep sent %d probes, want 500", got)
	}
}

func BenchmarkScan(b *testing.B) {
	targets := addrs(10000)
	f := &fakeResponder{up: map[ip6.Addr]wire.RespMask{}}
	s := New(f, WithWorkers(8))
	b.ResetTimer()
	var cols wire.ResultColumns
	for i := 0; i < b.N; i++ {
		cols.ResetOK(len(targets))
		s.ScanColumns(targets, wire.ICMPv6, 0, &cols)
	}
}
