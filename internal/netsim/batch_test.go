package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"expanse/internal/apd"
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

// fanOutTargets is an APD probe column over the world: the fan-out
// targets (apd.FanOutColumn, 16 per candidate) of every annEvery-th
// announcement and of every aliased region and hole, candidates in the
// alias plane's nested-prefix order — not address order.
func fanOutTargets(in *Internet, annEvery int) []ip6.Addr {
	var cands []apd.Candidate
	for i, c := range apd.BGPCandidates(in.Table) {
		if i%annEvery == 0 {
			cands = append(cands, c)
		}
	}
	for _, r := range in.AliasedRegions() {
		cands = append(cands, apd.Candidate{Prefix: r.Prefix})
		if !r.Hole.IsZero() {
			cands = append(cands, apd.Candidate{Prefix: r.Hole})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return ip6.CompareNested(cands[i].Prefix, cands[j].Prefix) < 0 })
	return apd.FanOutColumn(cands, 2)
}

// laneTargets is batchTargets plus what the lane kernel must not get
// wrong: every subscriber line's CPE, client and NAS address on each of
// the given days (an address valid on one is stale on the other where
// the pool rotated in between), and a denser sample of the regions whose
// quirks change the answer per destination or per protocol.
func laneTargets(in *Internet, rng *rand.Rand, days []int) []ip6.Addr {
	out := batchTargets(in, rng)
	for i := range in.isps {
		isp := &in.isps[i]
		for line := uint64(0); line < uint64(isp.lines); line += 5 {
			for _, day := range days {
				out = append(out, isp.cpeAddr(line, day), isp.nasAddr(line, day))
				if a, ok := isp.clientAddr(line, day); ok {
					out = append(out, a)
				}
			}
		}
	}
	for _, r := range in.AliasedRegions() {
		if r.Quirks&(QuirkProxyMix|QuirkRateLimit|QuirkSYNProxy) != 0 {
			for i := 0; i < 64; i++ {
				out = append(out, r.Prefix.RandomAddr(rng))
			}
		}
	}
	return out
}

// TestProbeBatchMatchesProbe property-pins the lane kernel against its
// one-destination, one-lane form and against the retired
// one-protocol-per-resolution batch (probeBatchRef): for every lane set
// production sends and two it does not (one protocol, APD's two, the
// sweep's five, a fingerprint pair's two time lines of one protocol, a
// protocol repeated on one line), every target order (sorted, as
// generated, apd.FanOutColumn's nested-prefix order), every batch split
// and a day on either side of a pool rotation, ProbeLanes must answer
// destination k on lane l exactly as Probe(dsts[k], l.Proto, day,
// l.At[k]) — OK, hop limit, and the full SYN-ACK fingerprint including
// the timestamp value, or OK alone on a lane whose columns record only
// OK, alone or beside lanes that record full answers — and ProbeBatch as
// its one-lane call. The target
// mix must reach the owners whose answers vary most: holes, the SYN
// proxy, the rate-limited region, a proxy-mix backend and QUIC-flaky
// hosts.
func TestProbeBatchMatchesProbe(t *testing.T) {
	days := []int{5, 6} // rotation periods 2, 3 and 6 all turn over between them
	rng := rand.New(rand.NewSource(0xba7c4))
	targets := laneTargets(world, rng, days)

	sorted := append([]ip6.Addr(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	fanout := fanOutTargets(world, 8)

	var holes, synProxy, rateLimited, proxyMix, quicFlaky, lineMembers int
	for _, dst := range targets {
		if ri, ok := ip6.LookupInterval(world.tabs.alias, dst); ok {
			switch r := &world.regions[ri]; {
			case !r.Hole.IsZero() && r.Hole.Contains(dst):
				holes++
			case r.Quirks&QuirkSYNProxy != 0:
				synProxy++
			case r.Quirks&QuirkRateLimit != 0:
				rateLimited++
			case r.Quirks&QuirkProxyMix != 0 && hashAddr(world.key, dst)%7 == 0:
				proxyMix++
			}
		} else if hi, ok := world.hc.findRef(dst); ok && world.hc.meta[hi]&hostFlagQUIC != 0 {
			quicFlaky++
		} else if ni := world.poolOf(dst); ni >= 0 {
			for _, day := range days {
				if _, _, ok := world.isps[world.nets[ni].isp].lineAt(dst, day); ok {
					lineMembers++
				}
			}
		}
	}
	if holes == 0 || synProxy == 0 || rateLimited == 0 || proxyMix == 0 || quicFlaky == 0 || lineMembers == 0 {
		t.Fatalf("target mix missed an owner: holes %d, SYN proxy %d, rate-limited %d, proxy-mix backend %d, QUIC-flaky %d, line members %d",
			holes, synProxy, rateLimited, proxyMix, quicFlaky, lineMembers)
	}

	// A lane set is protocols plus the offset of each lane's time line.
	type laneSpec struct {
		proto wire.Proto
		off   wire.Time
	}
	laneSets := map[string][]laneSpec{
		"one":      {{wire.UDP443, 4}},
		"apd":      {{wire.ICMPv6, 0}, {wire.TCP80, 1}},
		"sweep":    {{wire.ICMPv6, 0}, {wire.TCP80, 1}, {wire.TCP443, 2}, {wire.UDP53, 3}, {wire.UDP443, 4}},
		"pair":     {{wire.TCP80, 1}, {wire.TCP80, 11}},
		"repeated": {{wire.TCP80, 1}, {wire.ICMPv6, 0}, {wire.TCP80, 1}},
	}
	// Every lane set runs with all lanes recording only OK, all recording
	// full answers, and mixed: an OK-only lane gets the decide half of an
	// answer alone, so its bit must still be Probe's OK beside lanes that
	// describe theirs.
	// Recording levels change nothing about locate and its cursors, which
	// the full level's batch splits already cover; the other two run two
	// (chunk 0 is the whole order in one call).
	levels := map[string]struct {
		full   func(li int) bool
		chunks []int
	}{
		"ok":    {func(int) bool { return false }, []int{0, 7}},
		"full":  {func(int) bool { return true }, []int{0, 64, 7, 1}},
		"mixed": {func(li int) bool { return li%2 == 1 }, []int{0, 7}},
	}
	check := func(what string, i int, dst ip6.Addr, cols *wire.ResultColumns, want wire.Response) {
		t.Helper()
		if cols.OK.Get(i) != want.OK {
			t.Fatalf("%s target %d (%v): OK=%v want %v", what, i, dst, cols.OK.Get(i), want.OK)
		}
		if !want.OK || cols.HopLimit == nil {
			return
		}
		if cols.HopLimit[i] != want.HopLimit {
			t.Fatalf("%s target %d (%v): hop=%d want %d", what, i, dst, cols.HopLimit[i], want.HopLimit)
		}
		got := wire.TCPInfo{TCPFingerprint: cols.TCP[i], TSVal: cols.TSVal[i]}
		if got.Valid() != (want.TCP != nil) {
			t.Fatalf("%s target %d (%v): TCP presence mismatch", what, i, dst)
		}
		if want.TCP != nil && got != *want.TCP {
			t.Fatalf("%s target %d (%v): fingerprint %+v want %+v", what, i, dst, got, *want.TCP)
		}
	}
	for orderName, order := range map[string][]ip6.Addr{"sorted": sorted, "generated": targets, "fanout": fanout} {
		for _, day := range days {
			// Probe's answers once per (order, day, lane) — the lane sets
			// share lanes — with ProbeBatch, the one-lane call, and the
			// retired one-protocol batch held to them on the way.
			type answers struct {
				at   []wire.Time
				want []wire.Response
			}
			byLane := map[laneSpec]answers{}
			lane := func(ls laneSpec) answers {
				if a, ok := byLane[ls]; ok {
					return a
				}
				a := answers{make([]wire.Time, len(order)), make([]wire.Response, len(order))}
				var one, ref wire.ResultColumns
				one.Reset(len(order))
				ref.Reset(len(order))
				for i, dst := range order {
					a.at[i] = wire.Time(i)*20 + ls.off
					a.want[i] = world.Probe(dst, ls.proto, day, a.at[i])
				}
				world.ProbeBatch(order, ls.proto, day, a.at, &one, 0)
				world.probeBatchRef(order, ls.proto, day, a.at, &ref, 0)
				for i, dst := range order {
					check(fmt.Sprintf("%s day %d ProbeBatch %v", orderName, day, ls), i, dst, &one, a.want[i])
					check(fmt.Sprintf("%s day %d probeBatchRef %v", orderName, day, ls), i, dst, &ref, a.want[i])
				}
				byLane[ls] = a
				return a
			}
			for setName, set := range laneSets {
				for levelName, level := range levels {
					full := level.full
					for _, chunk := range level.chunks {
						if chunk == 0 {
							chunk = len(order)
						}
						cols := make([]wire.ResultColumns, len(set))
						lanes := make([]wire.Lane, len(set))
						for li := range set {
							if full(li) {
								cols[li].Reset(len(order))
							} else {
								cols[li].ResetOK(len(order))
							}
						}
						for lo := 0; lo < len(order); lo += chunk {
							hi := min(lo+chunk, len(order))
							for li, ls := range set {
								lanes[li] = wire.Lane{Proto: ls.proto, At: lane(ls).at[lo:hi], Out: &cols[li]}
							}
							world.ProbeLanes(order[lo:hi], day, lanes, lo)
						}
						for li, ls := range set {
							what := fmt.Sprintf("%s/%s/%s day %d chunk %d lane %d", orderName, setName, levelName, day, chunk, li)
							if !full(li) && cols[li].HopLimit != nil {
								t.Fatalf("%s: an OK-only lane grew a hop-limit column", what)
							}
							for i, dst := range order {
								check(what, i, dst, &cols[li], lane(ls).want[i])
							}
						}
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

// BenchmarkProbeLanes measures the responder kernel at the lane counts
// production sends — one (ScanColumns, Murdock, the report tables), APD's
// two, the sweep's five — over the three target orders it meets: a
// sorted hitlist, a seeded shuffle of it (every cursor misses) and
// apd.FanOutColumn's nested-prefix order, each with lanes recording only
// OK (every APD and sweep lane: the decide half of an answer) and with
// full columns (the report family's hop-limit and fingerprint scans: both
// halves). As in production, each lane follows its own send-time line, a
// permutation of the targets' positions, so no two lanes share a send
// time by construction. Batches are the scan engine's 512 with fresh
// cursors each. ns/probe is per lane answered; locates/op must equal the
// target count on every row — a destination is located once however
// many lanes it has. The one-lane rows guard the single-protocol callers.
func BenchmarkProbeLanes(b *testing.B) {
	var hitlist []ip6.Addr
	for _, h := range world.Hosts() {
		hitlist = append(hitlist, h.Addr)
	}
	for _, rec := range world.AliasRecords() {
		hitlist = append(hitlist, rec.Addr)
	}
	for _, rec := range world.StaleRecords() {
		hitlist = append(hitlist, rec.Addr)
	}
	sort.Slice(hitlist, func(i, j int) bool { return hitlist[i].Less(hitlist[j]) })
	shuffled := append([]ip6.Addr(nil), hitlist...)
	rand.New(rand.NewSource(0x5eed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	fanout := fanOutTargets(world, 1)

	const batch = 512
	for _, order := range []struct {
		name    string
		targets []ip6.Addr
	}{{"sorted", hitlist}, {"shuffled", shuffled}, {"fanout", fanout}} {
		for _, protos := range [][]wire.Proto{{wire.ICMPv6}, {wire.ICMPv6, wire.TCP80}, wire.Protos[:]} {
			targets := order.targets
			// Lane li's send-time line: target i goes out at its position
			// in the lane's own permutation, 10 µs apart.
			ats := make([][]wire.Time, len(protos))
			for li := range ats {
				ats[li] = make([]wire.Time, len(targets))
				for i, pos := range rand.New(rand.NewSource(int64(li) + 1)).Perm(len(targets)) {
					ats[li][i] = wire.Time(pos) * 10
				}
			}
			for _, full := range []bool{false, true} {
				level := "ok"
				if full {
					level = "full"
				}
				b.Run(fmt.Sprintf("%s/lanes=%d/%s", order.name, len(protos), level), func(b *testing.B) {
					cols := make([]wire.ResultColumns, len(protos))
					lanes := make([]wire.Lane, len(protos))
					located := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for li, p := range protos {
							if full {
								cols[li].Reset(len(targets))
							} else {
								cols[li].ResetOK(len(targets))
							}
							lanes[li] = wire.Lane{Proto: p, Out: &cols[li]}
						}
						for lo := 0; lo < len(targets); lo += batch {
							hi := min(lo+batch, len(targets))
							for li := range lanes {
								lanes[li].At = ats[li][lo:hi]
							}
							c := world.cursors()
							world.probeLanes(&c, targets[lo:hi], 3, lanes, lo)
							located += c.located
						}
					}
					b.StopTimer()
					probes := float64(b.N * len(targets) * len(protos))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/probes, "ns/probe")
					b.ReportMetric(float64(located)/float64(b.N), "locates/op")
					b.ReportMetric(float64(len(targets)), "targets/op")
				})
			}
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
	cols := &wire.ResultColumns{}
	cols.Reset(len(targets))
	return targets, at, cols
}
