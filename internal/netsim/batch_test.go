package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"expanse/internal/ip6"
	"expanse/internal/prof"
	"expanse/internal/wire"
)

// batchTargets assembles a destination mix that exercises every
// resolution path: finite hosts, aliased regions (including holes, the
// SYN proxy, and quirky regions), subscriber lines, and unrouted misses.
func batchTargets(in *Internet, rng *rand.Rand) []ip6.Addr {
	var out []ip6.Addr
	for _, h := range in.Hosts() {
		if rng.Intn(4) == 0 {
			out = append(out, h.Addr)
		}
	}
	for _, rec := range in.AliasRecords() {
		if rng.Intn(3) == 0 {
			out = append(out, rec.Addr)
		}
	}
	for _, r := range in.AliasedRegions() {
		for i := 0; i < 8; i++ {
			out = append(out, r.Prefix.RandomAddr(rng))
		}
		if !r.Hole.IsZero() {
			for i := 0; i < 8; i++ {
				out = append(out, r.Hole.RandomAddr(rng))
			}
		}
	}
	for _, a := range in.Table.Announcements() {
		if rng.Intn(3) == 0 {
			out = append(out, a.Prefix.RandomAddr(rng)) // lines + misses
		}
	}
	for i := 0; i < 200; i++ { // far-off misses
		out = append(out, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
	}
	return out
}

// TestProbeBatchMatchesProbe property-pins the batched responder against
// its one-destination form: for every destination mix, order (sorted and
// shuffled), batch split, protocol and day, ProbeBatch must answer probe
// k exactly as Probe(dsts[k], …) — OK, hop limit, and the full SYN-ACK
// fingerprint including the timestamp value.
func TestProbeBatchMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c4))
	targets := batchTargets(world, rng)

	sorted := append([]ip6.Addr(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	for _, order := range [][]ip6.Addr{sorted, targets} {
		for _, chunk := range []int{len(order), 64, 7, 1} {
			for _, proto := range []wire.Proto{wire.ICMPv6, wire.TCP80, wire.UDP443} {
				day := 3 + int(proto)
				at := make([]wire.Time, len(order))
				for i := range at {
					at[i] = wire.Time(i) * 10
				}
				var table wire.TCPTable
				var cols wire.ResultColumns
				cols.Reset(len(order), &table)
				for lo := 0; lo < len(order); lo += chunk {
					hi := lo + chunk
					if hi > len(order) {
						hi = len(order)
					}
					world.ProbeBatch(order[lo:hi], proto, day, at[lo:hi], &cols, lo)
				}
				for i, dst := range order {
					want := world.Probe(dst, proto, day, at[i])
					if cols.OK.Get(i) != want.OK {
						t.Fatalf("chunk=%d proto=%v target %d (%v): OK=%v want %v",
							chunk, proto, i, dst, cols.OK.Get(i), want.OK)
					}
					if !want.OK {
						continue
					}
					if cols.HopLimit[i] != want.HopLimit {
						t.Fatalf("chunk=%d proto=%v target %d: hop=%d want %d",
							chunk, proto, i, cols.HopLimit[i], want.HopLimit)
					}
					got := cols.TCPInfoAt(i)
					if (got == nil) != (want.TCP == nil) {
						t.Fatalf("chunk=%d proto=%v target %d: TCP presence mismatch", chunk, proto, i)
					}
					if got != nil && *got != *want.TCP {
						t.Fatalf("chunk=%d proto=%v target %d: fingerprint %+v want %+v",
							chunk, proto, i, *got, *want.TCP)
					}
				}
			}
		}
	}
}

// TestProbeBatchMaskOnly pins the mask-only column mode: with just an OK
// bitset the batched responder must agree with Probe on responsiveness
// and leave no trace of fingerprint work.
func TestProbeBatchMaskOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c5))
	targets := batchTargets(world, rng)
	at := make([]wire.Time, len(targets))
	for i := range at {
		at[i] = wire.Time(i) * 10
	}
	var cols wire.ResultColumns
	cols.ResetOK(len(targets))
	world.ProbeBatch(targets, wire.TCP80, 5, at, &cols, 0)
	for i, dst := range targets {
		if cols.OK.Get(i) != world.Probe(dst, wire.TCP80, 5, at[i]).OK {
			t.Fatalf("target %d: OK mismatch in mask-only mode", i)
		}
	}
}

// TestProbingRetainsNothing pins what deleting the machine memo bought:
// thirty days of sweeping every subscriber line's CPE, NAS and client
// address — rotating pools move them daily, and each device's profile is
// derived on the prober's stack — leave the heap where they found it. The
// memo kept ≈ 180 B per line device, 450 KB over this world's pools; the
// 256 KiB bound sits between that and the runtime's own bookkeeping, race
// detector included.
func TestProbingRetainsNothing(t *testing.T) {
	lines := 0
	for i := range world.isps {
		lines += world.isps[i].lines
	}
	targets := make([]ip6.Addr, 0, 3*lines)
	at := make([]wire.Time, 0, 3*lines)
	var cols wire.ResultColumns
	cols.ResetOK(3 * lines)
	before := prof.LiveHeap()
	answered := 0
	for day := 0; day < 30; day++ {
		targets, at = targets[:0], at[:0]
		for i := range world.isps {
			isp := &world.isps[i]
			for line := uint64(0); line < uint64(isp.lines); line++ {
				targets = append(targets, isp.cpeAddr(line, day), isp.nasAddr(line, day))
				if a, ok := isp.clientAddr(line, day); ok {
					targets = append(targets, a)
				}
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
		for i := range targets {
			at = append(at, wire.Time(i)*10)
		}
		for _, proto := range []wire.Proto{wire.ICMPv6, wire.TCP80} {
			cols.ResetOK(len(targets))
			world.ProbeBatch(targets, proto, day, at, &cols, 0)
			answered += cols.OK.Count()
		}
	}
	grew := prof.LiveHeap() - before
	if answered < lines {
		t.Fatalf("only %d answers from %d lines in 30 days", answered, lines)
	}
	if grew > 256<<10 {
		t.Fatalf("30 days of line sweeps (%d lines, %d answers) grew the live heap by %d bytes", lines, answered, grew)
	}
}

// BenchmarkProbeBatch measures the batched responder on a sorted
// destination run inside aliased space — the shape a sorted hitlist scan
// presents — against one Probe call per target doing the same work.
func BenchmarkProbeBatch(b *testing.B) {
	targets, at, cols := benchBatchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols.OK.Reset(len(targets))
		world.ProbeBatch(targets, wire.TCP80, 3, at, cols, 0)
	}
}

// BenchmarkProbeBatchLegacy is the same probe set answered one Probe call
// at a time: fresh cursors (a binary search per table, no run reuse — no
// trie walks remain) and a TCPInfo allocation per answer.
func BenchmarkProbeBatchLegacy(b *testing.B) {
	targets, at, _ := benchBatchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, dst := range targets {
			_ = world.Probe(dst, wire.TCP80, 3, at[k])
		}
	}
}

func benchBatchInput() ([]ip6.Addr, []wire.Time, *wire.ResultColumns) {
	rng := rand.New(rand.NewSource(0xbe7c4))
	var targets []ip6.Addr
	for _, rec := range world.AliasRecords() {
		targets = append(targets, rec.Addr)
	}
	for _, h := range world.Hosts() {
		targets = append(targets, h.Addr)
	}
	for len(targets) < 20000 {
		targets = append(targets, world.regions[rng.Intn(len(world.regions))].Prefix.RandomAddr(rng))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	at := make([]wire.Time, len(targets))
	for i := range at {
		at[i] = wire.Time(i) * 10
	}
	var table wire.TCPTable
	cols := &wire.ResultColumns{}
	cols.Reset(len(targets), &table)
	return targets, at, cols
}
