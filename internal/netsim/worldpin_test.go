package netsim

import (
	"encoding/hex"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

// World-construction pins for the columnar plane. The digest constants
// below were captured from the pre-refactor map/AoS world (the one the
// published report checksums were produced on); the sealed columns must
// reproduce them bit for bit. The property tests then pin every columnar
// access path — construction order, HostAt, the batched merge cursor —
// against the legacy builder (see buildWithRef) across populations,
// orders and batch splits.

// pinnedDigests maps config name → hex SHA-256 of Digest() captured at
// the last map/AoS commit. Changing world generation intentionally means
// re-capturing these and re-blessing every report checksum downstream.
var pinnedDigests = map[string]string{
	"test": "c0d07b1ae0626bea484e1028d21bc0cf19db19825b7caee9eb692ba59b82f717",
	"mid":  "1581874164345e578cec0d6792063d85deaa5f53080d429f762938d4593bd73a",
	"alt":  "98580e68f334bba7506b1c05802b9be5776a9b14912d27987ab85f761281a4b8",
}

func pinConfigs() map[string]Config {
	return map[string]Config{
		"test": testConfig(),
		"mid":  {Seed: 0x16C18, Registry: bgp.DefaultRegistryConfig(), Scale: 0.25, EpochDays: 7, Epochs: 10},
		"alt":  {Seed: 7, Registry: bgp.RegistryConfig{ASes: 400, PrefixesPerAS: 4.2, Seed: 11}, Scale: 0.12, EpochDays: 5, Epochs: 8},
	}
}

// forProcs runs fn at GOMAXPROCS 1, 2 and 8 and restores the setting:
// world construction fans out over GOMAXPROCS, and what it builds must
// not depend on it.
func forProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

func TestWorldDigestPinned(t *testing.T) {
	for name, cfg := range pinConfigs() {
		if testing.Short() && name != "test" {
			continue
		}
		forProcs(t, func(procs int) {
			got := New(cfg).Digest()
			if hex.EncodeToString(got[:]) != pinnedDigests[name] {
				t.Errorf("config %q, GOMAXPROCS %d: world digest %x, want %s", name, procs, got, pinnedDigests[name])
			}
		})
	}
}

// buildWithRef builds a world by driving New's steps itself, so it can
// keep what seal drops: the builder, the legacy map/AoS representation of
// the same population — the reference the sealed columns are pinned
// against. The world it returns must be the one New builds
// (digest-checked).
func buildWithRef(t *testing.T, cfg Config) (*Internet, *worldBuilder) {
	t.Helper()
	in := newUnsealed(cfg)
	in.planBulk()
	in.planRDNS()
	ref := in.b
	in.seal()
	if in.b != nil {
		t.Fatal("seal left a builder behind")
	}
	if got, want := in.Digest(), New(cfg).Digest(); got != want {
		t.Fatalf("hand-driven seal built a different world than New: %x vs %x", got, want)
	}
	return in, ref
}

// refConfigs are small worlds diverse enough to cover every population
// (farms, anomalies, subscriber pools, rDNS-only routers).
func refConfigs() []Config {
	return []Config{
		testConfig(),
		{Seed: 3, Registry: bgp.RegistryConfig{ASes: 120, PrefixesPerAS: 2.5, Seed: 5}, Scale: 0.05, EpochDays: 5, Epochs: 4},
		{Seed: 0x5eed, Registry: bgp.RegistryConfig{ASes: 300, PrefixesPerAS: 4.0, Seed: 13}, Scale: 0.1, EpochDays: 7, Epochs: 8},
	}
}

// hostMap is the map reference of a builder's index: each address to its
// insertion rank. It fails the test if the builder holds an address
// twice.
func hostMap(t *testing.T, b *worldBuilder) map[ip6.Addr]int32 {
	t.Helper()
	m := make(map[ip6.Addr]int32, len(b.arr))
	for r, h := range b.arr {
		if _, dup := m[h.Addr]; dup {
			t.Fatalf("builder holds %v twice", h.Addr)
		}
		m[h.Addr] = int32(r)
	}
	return m
}

// TestColumnsMatchBuilder pins the sealed columns against the retained
// builder at GOMAXPROCS 1, 2 and 8: same population, same insertion
// order, same per-host fields.
func TestColumnsMatchBuilder(t *testing.T) {
	for ci, cfg := range refConfigs() {
		forProcs(t, func(procs int) {
			in, ref := buildWithRef(t, cfg)
			if got, want := in.hc.n(), len(ref.arr); got != want {
				t.Fatalf("config %d, GOMAXPROCS %d: %d hosts in columns, %d in builder", ci, procs, got, want)
			}
			// Insertion (rank) order: byRank must walk the columns in
			// exactly builder-append order.
			for rank, pos := range in.hc.byRank {
				if got, want := in.hc.hostAt(pos), ref.arr[rank]; got != want {
					t.Fatalf("config %d, GOMAXPROCS %d, rank %d: columns %+v, builder %+v", ci, procs, rank, got, want)
				}
			}
			// Sorted order: addresses strictly increasing (no duplicates).
			for i := 1; i < in.hc.n(); i++ {
				if !in.hc.addr[i-1].Less(in.hc.addr[i]) {
					t.Fatalf("config %d, GOMAXPROCS %d: columns not strictly sorted at %d", ci, procs, i)
				}
			}
			// The builder's index and a binary search agree with the map
			// for every member.
			for addr, idx := range hostMap(t, ref) {
				if r := ref.rank(addr); r != idx {
					t.Fatalf("config %d: builder index ranks %v %d, map %d", ci, addr, r, idx)
				}
				i, ok := in.hc.findRef(addr)
				if !ok {
					t.Fatalf("config %d, GOMAXPROCS %d: %v in builder but not found in columns", ci, procs, addr)
				}
				if in.hc.hostAt(i) != ref.arr[idx] {
					t.Fatalf("config %d, GOMAXPROCS %d: host at %v differs from builder", ci, procs, addr)
				}
			}
		})
	}
}

// TestBuilderFirstInsertionWins holds the builder to a Go map's
// first-insertion-wins over offers drawn from a small address pool (most
// are duplicates), from an empty builder that grows and from one sized
// for every offer.
func TestBuilderFirstInsertionWins(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb1d))
	pool := make([]ip6.Addr, 3000)
	for i := range pool {
		pool[i] = ip6.AddrFromUint64(rng.Uint64()&0xff, uint64(rng.Intn(512)))
	}
	offers := make([]Host, 20000)
	for i := range offers {
		offers[i] = Host{Addr: pool[rng.Intn(len(pool))], Machine: uint64(i)}
	}
	for _, size := range []int{0, len(offers)} {
		b := newWorldBuilder(size)
		want := map[ip6.Addr]int32{}
		var wantArr []Host
		for _, h := range offers {
			b.add(h)
			if _, dup := want[h.Addr]; !dup {
				want[h.Addr] = int32(len(wantArr))
				wantArr = append(wantArr, h)
			}
		}
		if !slices.Equal(b.arr, wantArr) {
			t.Fatalf("sized %d: builder kept %d hosts, map %d, or their order differs", size, len(b.arr), len(wantArr))
		}
		for addr, r := range want {
			if got := b.rank(addr); got != r {
				t.Fatalf("sized %d: rank of %v is %d, map says %d", size, addr, got, r)
			}
		}
	}
}

// TestHostAtMatchesReference pins HostAt (binary search) against the
// retained map for hits, near-misses (members ±1) and random misses.
func TestHostAtMatchesReference(t *testing.T) {
	in, ref := buildWithRef(t, testConfig())
	rng := rand.New(rand.NewSource(0x40a7))
	var queries []ip6.Addr
	refHosts := hostMap(t, ref)
	for addr := range refHosts {
		queries = append(queries, addr)
		if rng.Intn(4) == 0 {
			queries = append(queries, addr.Next(), addr.Prev())
		}
	}
	for i := 0; i < 2000; i++ {
		queries = append(queries, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
	}
	for _, q := range queries {
		got, gotOK := in.HostAt(q)
		idx, wantOK := refHosts[q]
		if gotOK != wantOK {
			t.Fatalf("HostAt(%v): ok=%v, map says %v", q, gotOK, wantOK)
		}
		if gotOK && got != ref.arr[idx] {
			t.Fatalf("HostAt(%v): %+v, map says %+v", q, got, ref.arr[idx])
		}
	}
}

// TestHostRunMatchesReference pins the amortized merge cursor against the
// map across query orders (sorted ascending, descending, shuffled) and
// restart splits, over a mix dense in members, neighbours and misses.
func TestHostRunMatchesReference(t *testing.T) {
	in, ref := buildWithRef(t, testConfig())
	rng := rand.New(rand.NewSource(0x40a8))
	var queries []ip6.Addr
	refHosts := hostMap(t, ref)
	for addr := range refHosts {
		queries = append(queries, addr)
		if rng.Intn(3) == 0 {
			queries = append(queries, addr.Next())
		}
	}
	for i := 0; i < 3000; i++ {
		queries = append(queries, ip6.AddrFromUint64(rng.Uint64(), rng.Uint64()))
	}
	sorted := append([]ip6.Addr(nil), queries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	desc := append([]ip6.Addr(nil), sorted...)
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	shuffled := append([]ip6.Addr(nil), queries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	for oi, order := range [][]ip6.Addr{sorted, desc, shuffled} {
		for _, split := range []int{len(order), 64, 7, 1} {
			cur := hostRun{hc: &in.hc}
			for k, q := range order {
				if k%split == 0 {
					cur = hostRun{hc: &in.hc} // fresh cursor per batch
				}
				hi, ok := cur.lookup(q)
				idx, wantOK := refHosts[q]
				if ok != wantOK {
					t.Fatalf("order %d split %d: cursor(%v) ok=%v, map says %v", oi, split, q, ok, wantOK)
				}
				if ok && in.hc.hostAt(hi) != ref.arr[idx] {
					t.Fatalf("order %d split %d: cursor(%v) wrong host", oi, split, q)
				}
			}
		}
	}
}

// TestHostsClassFilter pins the class-filtered enumeration against a
// builder-side filter in insertion order.
func TestHostsClassFilter(t *testing.T) {
	in, ref := buildWithRef(t, testConfig())
	for _, classes := range [][]HostClass{
		nil,
		{ClassWebServer},
		{ClassRouter, ClassCPE},
		{ClassBitnode, ClassAtlas, ClassDNSServer},
	} {
		want := map[HostClass]bool{}
		for _, c := range classes {
			want[c] = true
		}
		var expect []Host
		for _, h := range ref.arr {
			if len(classes) == 0 || want[h.Class] {
				expect = append(expect, h)
			}
		}
		got := in.Hosts(classes...)
		if len(got) != len(expect) {
			t.Fatalf("classes %v: %d hosts, want %d", classes, len(got), len(expect))
		}
		for i := range got {
			if got[i] != expect[i] {
				t.Fatalf("classes %v: host %d differs", classes, i)
			}
		}
	}
}

// TestBatchMatchesPerProbeOnRefWorlds re-runs the batch-vs-probe pin on
// the reference worlds (the shared test world is covered by
// TestProbeBatchMatchesProbe) so the merge cursor is exercised against
// populations with different farm/pool mixes.
func TestBatchMatchesPerProbeOnRefWorlds(t *testing.T) {
	for ci, cfg := range refConfigs()[1:] {
		in := New(cfg)
		rng := rand.New(rand.NewSource(int64(0xba7c6 + ci)))
		targets := batchTargets(in, rng)
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
		at := make([]wire.Time, len(targets))
		for i := range at {
			at[i] = wire.Time(i) * 7
		}
		var cols wire.ResultColumns
		cols.Reset(len(targets))
		in.ProbeBatch(targets, wire.TCP80, 2, at, &cols, 0)
		for i, dst := range targets {
			want := in.Probe(dst, wire.TCP80, 2, at[i])
			if cols.OK.Get(i) != want.OK {
				t.Fatalf("config %d target %d: OK mismatch", ci, i)
			}
			if want.OK && cols.HopLimit[i] != want.HopLimit {
				t.Fatalf("config %d target %d: hop mismatch", ci, i)
			}
		}
	}
}

// BenchmarkWorldNew measures world construction at scale 0.25 with the
// default registry (the pinned "mid" world, the daily benchmark's):
// routing table, the two-phase plan, rDNS and seal. Run it at -cpu 1,2,4
// for the world stage's per-core curve.
func BenchmarkWorldNew(b *testing.B) {
	cfg := pinConfigs()["mid"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(cfg)
	}
}
