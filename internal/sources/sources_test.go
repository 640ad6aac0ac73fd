package sources

import (
	"fmt"
	"testing"

	"expanse/internal/bgp"
	"expanse/internal/dnssim"
	"expanse/internal/hash64"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
)

func testWorld() *netsim.Internet {
	return netsim.New(netsim.Config{
		Seed:      42,
		Registry:  bgp.RegistryConfig{ASes: 250, PrefixesPerAS: 3.5, Seed: 7},
		Scale:     0.08,
		EpochDays: 7,
		Epochs:    6,
	})
}

var world = testWorld()
var dns = dnssim.New(world)

func allSources() []Source {
	cfg := world.Config()
	return []Source{
		NewDL(dns, cfg),
		NewFDNS(dns, cfg),
		NewCT(dns, cfg),
		NewAXFR(dns, cfg),
		NewBitnodes(world),
		NewAtlas(world),
		NewScamper(world),
	}
}

func TestAllSourcesProduce(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	st.CollectDay(0)
	st.CollectDay(world.Config().EpochDays * (world.Config().Epochs - 1))
	for _, name := range Names {
		if st.PerSource(name).Len() == 0 {
			t.Errorf("source %s produced nothing", name)
		}
	}
	if st.All().Len() == 0 {
		t.Fatal("empty hitlist")
	}
}

func TestRunupGrows(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	cfg := world.Config()
	for e := 0; e < cfg.Epochs; e++ {
		st.CollectDay(e * cfg.EpochDays)
	}
	runup := st.Runup()
	if len(runup) != cfg.Epochs {
		t.Fatalf("runup points = %d", len(runup))
	}
	for i := 1; i < len(runup); i++ {
		if runup[i].Total < runup[i-1].Total {
			t.Fatalf("hitlist shrank at epoch %d", i)
		}
	}
	if runup[len(runup)-1].Total <= runup[0].Total {
		t.Error("no growth over epochs")
	}
	// Scamper must grow across epochs (rotating CPE discovery).
	first := runup[0].Cumulative[Scamper]
	last := runup[len(runup)-1].Cumulative[Scamper]
	if last <= first {
		t.Errorf("scamper did not grow: %d -> %d", first, last)
	}
}

func TestCTExcludesDL(t *testing.T) {
	cfg := world.Config()
	ct := NewCT(dns, cfg)
	dl := NewDL(dns, cfg)
	lastDay := cfg.EpochDays * (cfg.Epochs - 1)
	dlSet := ip6.NewSet(1024)
	for _, a := range dl.Collect(lastDay, nil) {
		dlSet.Add(a)
	}
	ctAddrs := ct.Collect(lastDay, nil)
	overlap := 0
	for _, a := range ctAddrs {
		if dlSet.Contains(a) {
			overlap++
		}
	}
	// Domain-level exclusion keeps address overlap low (addresses can
	// still coincide when several domains point at one host).
	if len(ctAddrs) > 0 && float64(overlap)/float64(len(ctAddrs)) > 0.35 {
		t.Errorf("CT/DL overlap = %d/%d, exclusion not working", overlap, len(ctAddrs))
	}
}

func TestScamperFindsSLAACRouters(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	cfg := world.Config()
	// SLAAC dominance builds up over epochs: every renumbering period the
	// rotating lines' CPEs appear under fresh addresses (§3).
	for e := 0; e < cfg.Epochs; e++ {
		st.CollectDay(e * cfg.EpochDays)
	}
	sc := st.PerSource(Scamper)
	slaac := 0
	sc.Each(func(a ip6.Addr) bool {
		if a.IsSLAAC() {
			slaac++
		}
		return true
	})
	if sc.Len() == 0 {
		t.Fatal("scamper empty")
	}
	share := float64(slaac) / float64(sc.Len())
	// The paper reports 90.7% SLAAC among scamper addresses; at our small
	// test scale expect a clear majority once CPE discovery kicks in.
	if share < 0.3 {
		t.Errorf("scamper SLAAC share = %.2f, want significant", share)
	}
}

func TestStatsShape(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	cfg := world.Config()
	for e := 0; e < cfg.Epochs; e++ {
		st.CollectDay(e * cfg.EpochDays)
	}
	stats := st.Stats(world.Table)
	if len(stats) != len(Names) {
		t.Fatalf("stats rows = %d", len(stats))
	}
	totalNew := 0
	for _, s := range stats {
		if s.IPs < s.NewIPs {
			t.Errorf("%s: new (%d) exceeds total (%d)", s.Name, s.NewIPs, s.IPs)
		}
		if s.IPs > 0 && (s.ASes == 0 || s.Prefixes == 0) {
			t.Errorf("%s: no AS/prefix attribution", s.Name)
		}
		if len(s.TopAS) > 3 {
			t.Errorf("%s: too many top ASes", s.Name)
		}
		for _, ts := range s.TopAS {
			if ts.Share < 0 || ts.Share > 1 {
				t.Errorf("%s: share %v out of range", s.Name, ts.Share)
			}
		}
		totalNew += s.NewIPs
	}
	tot := st.TotalStat(world.Table)
	if tot.IPs != st.All().Len() {
		t.Errorf("total = %d, want %d", tot.IPs, st.All().Len())
	}
	// New-address attribution partitions the hitlist.
	if totalNew != tot.IPs {
		t.Errorf("sum of new per source = %d, total = %d", totalNew, tot.IPs)
	}
}

func TestDLIsCDNHeavy(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	cfg := world.Config()
	for e := 0; e < cfg.Epochs; e++ {
		st.CollectDay(e * cfg.EpochDays)
	}
	stats := st.Stats(world.Table)
	for _, s := range stats {
		if s.Name != DL && s.Name != CT {
			continue
		}
		if len(s.TopAS) == 0 {
			t.Fatalf("%s has no top AS", s.Name)
		}
		// The top AS of the DNS-derived sources must hold a large share
		// (paper: 89.7% and 92.3%, Amazon). Our scale softens it.
		if s.TopAS[0].Share < 0.25 {
			t.Errorf("%s top AS share = %.2f, want CDN-heavy", s.Name, s.TopAS[0].Share)
		}
	}
}

func TestAccumulationKeepsOldAddresses(t *testing.T) {
	st := NewStoreWorkers(0, allSources()...)
	st.CollectDay(0)
	before := st.All().Len()
	st.CollectDay(7)
	st.CollectDay(14)
	// Nothing ever leaves.
	after := st.All().Len()
	if after < before {
		t.Error("store dropped addresses")
	}
}

// TestStoreMatchesMapReference pins the data-plane refactor: the sharded
// columnar Store must accumulate byte-for-byte the same state as the
// pre-refactor map-based implementation (serial ip6.Set, per-address
// Add/attribution) fed the same source outputs.
func TestStoreMatchesMapReference(t *testing.T) {
	cfg := world.Config()
	st := NewStoreWorkers(0, allSources()...)

	// Reference: the old CollectDay loop over plain sets. The reference
	// keeps its own hitlist mirror to feed scamper, built with serial
	// single adds.
	refSrcs := allSources()
	refAll := ip6.NewSet(0)
	refMirror := ip6.NewShardSetWorkers(0, 1)
	refPer := map[string]*ip6.Set{}
	refNew := map[string]*ip6.Set{}
	for _, s := range refSrcs {
		refPer[s.Name()] = ip6.NewSet(0)
		refNew[s.Name()] = ip6.NewSet(0)
	}
	var refRunup []RunupPoint

	setsEqual := func(got *ip6.ShardSet, want *ip6.Set) bool {
		if got.Len() != want.Len() {
			return false
		}
		ok := true
		got.Each(func(a ip6.Addr) bool {
			if !want.Contains(a) {
				ok = false
			}
			return ok
		})
		return ok
	}

	for e := 0; e < cfg.Epochs; e++ {
		day := e * cfg.EpochDays
		st.CollectDay(day)

		for _, s := range refSrcs {
			addrs := s.Collect(day, refMirror)
			per, nw := refPer[s.Name()], refNew[s.Name()]
			for _, a := range addrs {
				per.Add(a)
				if refAll.Add(a) {
					nw.Add(a)
				}
				refMirror.Add(a)
			}
		}
		pt := RunupPoint{Day: day, Cumulative: map[string]int{}, Total: refAll.Len()}
		for name, set := range refPer {
			pt.Cumulative[name] = set.Len()
		}
		refRunup = append(refRunup, pt)

		if !setsEqual(st.All(), refAll) {
			t.Fatalf("epoch %d: hitlist diverged from map reference (%d vs %d)",
				e, st.All().Len(), refAll.Len())
		}
	}
	for _, name := range Names {
		if !setsEqual(st.PerSource(name), refPer[name]) {
			t.Errorf("per-source set %q diverged", name)
		}
		if st.NewCount(name) != refNew[name].Len() {
			t.Errorf("new-address attribution for %q = %d, want %d",
				name, st.NewCount(name), refNew[name].Len())
		}
	}
	for i, pt := range st.Runup() {
		want := refRunup[i]
		if pt.Day != want.Day || pt.Total != want.Total {
			t.Errorf("runup point %d = %+v, want %+v", i, pt, want)
		}
		for name, c := range want.Cumulative {
			if pt.Cumulative[name] != c {
				t.Errorf("runup point %d source %q = %d, want %d", i, name, pt.Cumulative[name], c)
			}
		}
	}
	// The sorted hitlist view must equal the reference sort.
	got, want := st.All().Sorted(), refAll.Sorted()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted view differs at %d", i)
		}
	}
}

// TestStoreDeterministicAcrossWorkers pins the data plane's throughput
// knob: store contents, statistics, runup and iteration order must be
// identical for every worker count.
func TestStoreDeterministicAcrossWorkers(t *testing.T) {
	cfg := world.Config()
	build := func(workers int) *Store {
		st := NewStoreWorkers(workers, allSources()...)
		for e := 0; e < cfg.Epochs; e++ {
			st.CollectDay(e * cfg.EpochDays)
		}
		return st
	}
	ref := build(1)
	refSorted := ref.All().Sorted()
	refStats := ref.Stats(world.Table)
	refTotal := ref.TotalStat(world.Table)
	for _, workers := range []int{4, 16} {
		st := build(workers)
		got := st.All().Sorted()
		if len(got) != len(refSorted) {
			t.Fatalf("workers=%d: hitlist %d addrs, want %d", workers, len(got), len(refSorted))
		}
		for i := range refSorted {
			if got[i] != refSorted[i] {
				t.Fatalf("workers=%d: sorted hitlist differs at %d", workers, i)
			}
		}
		// Each order (shard-major) must match too — report code iterates it.
		var order []ip6.Addr
		st.All().Each(func(a ip6.Addr) bool { order = append(order, a); return true })
		var refOrder []ip6.Addr
		ref.All().Each(func(a ip6.Addr) bool { refOrder = append(refOrder, a); return true })
		for i := range refOrder {
			if order[i] != refOrder[i] {
				t.Fatalf("workers=%d: Each order differs at %d", workers, i)
			}
		}
		stats := st.Stats(world.Table)
		for i, s := range stats {
			r := refStats[i]
			if s.Name != r.Name || s.IPs != r.IPs || s.NewIPs != r.NewIPs ||
				s.ASes != r.ASes || s.Prefixes != r.Prefixes || len(s.TopAS) != len(r.TopAS) {
				t.Errorf("workers=%d: stats row %q differs: %+v vs %+v", workers, s.Name, s, r)
			}
			for j := range s.TopAS {
				if s.TopAS[j] != r.TopAS[j] {
					t.Errorf("workers=%d: %q top-AS %d differs", workers, s.Name, j)
				}
			}
		}
		if tot := st.TotalStat(world.Table); tot.IPs != refTotal.IPs || tot.ASes != refTotal.ASes ||
			tot.Prefixes != refTotal.Prefixes {
			t.Errorf("workers=%d: total stat differs: %+v vs %+v", workers, tot, refTotal)
		}
	}
}

// synthSource feeds a per-day synthetic address batch — the ≥10⁶-address
// hitlist for the collection benchmark.
type synthSource struct {
	name  string
	byDay map[int][]ip6.Addr
}

func (s *synthSource) Name() string { return s.name }
func (s *synthSource) Collect(day int, _ *ip6.ShardSet) []ip6.Addr {
	return s.byDay[day]
}

func synthAddrs(n int, seed uint64) []ip6.Addr {
	out := make([]ip6.Addr, n)
	x := seed
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range out {
		v := next()
		out[i] = ip6.AddrFromUint64(0x2001_0db8_0000_0000|v>>40, next())
	}
	return out
}

// BenchmarkStoreCollect measures two CollectDay rounds over a
// 2^20-address synthetic hitlist: day 0 is all-new insertion, day 1
// re-offers the full batch (pure dedup) plus a fresh 25% tail, at
// several data-plane worker counts. The real sources stopped
// re-offering what they already reported; the synthetic re-offer stays
// because this benchmark measures AddSlice's dedup, and
// BenchmarkCollectWorld measures collection.
func BenchmarkStoreCollect(b *testing.B) {
	const n = 1 << 20
	base := synthAddrs(n, 0x16c18)
	extra := synthAddrs(n/4, 0x9d)
	day1 := append(append([]ip6.Addr{}, base...), extra...)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := NewStoreWorkers(workers,
					&synthSource{name: "synth", byDay: map[int][]ip6.Addr{0: base, 1: day1}},
				)
				st.CollectDay(0)
				st.CollectDay(1)
				if st.All().Len() != n+len(extra) {
					b.Fatal("bad dedup")
				}
			}
		})
	}
}

// BenchmarkCollectWorld runs the seven real collectors through every
// collection epoch of core.TestConfig's world (spelled out here: core
// imports this package) and reports the two counts incremental
// collection exists to keep small — addresses handed to the store and
// targets scamper traced — next to the time.
func BenchmarkCollectWorld(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Scale = 0.08
	cfg.Registry.ASes = 250
	w := netsim.New(cfg)
	d := dnssim.New(w)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var offered, traced int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				offered, traced = 0, 0
				sc := NewScamper(w).(*scamperSource)
				st := NewStoreWorkers(workers, counting([]Source{
					NewDL(d, cfg), NewFDNS(d, cfg), NewCT(d, cfg), NewAXFR(d, cfg),
					NewBitnodes(w), NewAtlas(w), sc,
				}, &offered)...)
				b.StartTimer()
				for e := 0; e < cfg.Epochs; e++ {
					st.CollectDay(e * cfg.EpochDays)
				}
				b.StopTimer()
				// Scamper classifies each target once, as its shard
				// cursor passes it.
				for si, shard := range st.All().Shards() {
					for _, a := range shard[:sc.cursor[si]] {
						if sc.traced(a) {
							traced++
						}
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(offered), "addrs-offered/op")
			b.ReportMetric(float64(traced), "traced-targets/op")
		})
	}
}

func TestFirstEpochDeterministic(t *testing.T) {
	if k := hash64.String("x.example."); firstEpoch(k, DL, 10) != firstEpoch(k, DL, 10) {
		t.Error("firstEpoch not deterministic")
	}
	spread := map[int]bool{}
	for i := 0; i < 200; i++ {
		spread[firstEpoch(hash64.String(string(rune('a'+i%26))+string(rune('0'+i/26))+".example."), DL, 10)] = true
	}
	if len(spread) < 8 {
		t.Errorf("firstEpoch only hits %d epochs of 10", len(spread))
	}
}
