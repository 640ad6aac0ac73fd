package core

import (
	"slices"

	"expanse/internal/bgp"
	"expanse/internal/eip"
	"expanse/internal/ip6"
	"expanse/internal/par"
	"expanse/internal/sixgen"
	"expanse/internal/stats"
	"expanse/internal/wire"
)

// genStudyState caches the §7 target-generation study.
type genStudyState struct {
	eligibleASes int
	genEIP       []ip6.Addr
	gen6Gen      []ip6.Addr
	newEIP       int // routable + new
	new6Gen      int
	overlap      []ip6.Addr
	scanEIP      *Scan
	scan6Gen     *Scan
	respEIP      []wire.RespMask // masks of responsive EIP addresses
	resp6Gen     []wire.RespMask
	respAddrEIP  []ip6.Addr
	respAddr6Gen []ip6.Addr
	respOverlap  int
}

// genBudgetPerAS is the per-AS generation budget: the paper generates 1M
// per AS and samples 100k; we scale 1:1000 to the simulator.
const genBudgetPerAS = 1000

// cleanTargetsByAS splits the curated hitlist — the addresses outside
// aliased prefixes — by origin AS, ASN ascending: the seed sets of §7.
func (l *Lab) cleanTargetsByAS() []bgp.ASGroup {
	return l.P.World.Table.SplitByAS(l.windowEpoch().CleanTargets(), l.P.Cfg.Workers)
}

// genStudy runs §7.1's six-step methodology: non-aliased seeds, split by
// AS (>= 100 addresses), capped random sample, per-AS model building and
// generation with both tools, capped output sample, probing.
func (l *Lab) genStudy() *genStudyState { return l.gen.get(l.buildGenStudy) }

func (l *Lab) buildGenStudy() *genStudyState {
	g := &genStudyState{}

	// One slot per eligible AS. The seed samples share one rng and are
	// drawn in AS order; the models are independent and fan out; the dedup
	// below merges in AS order again, so the study is the same at any
	// Workers.
	type asGen struct{ seeds, eip, sixgen []ip6.Addr }
	var gens []asGen
	rng := newRand(0x6e6)
	for _, as := range l.cleanTargetsByAS() {
		if len(as.Addrs) >= l.P.Cfg.GroupMin() {
			gens = append(gens, asGen{seeds: stats.SampleCap(as.Addrs, 100_000, rng)})
		}
	}
	g.eligibleASes = len(gens)
	par.Ranges(len(gens), l.P.Cfg.Workers, 1, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ag := &gens[i]
			// Entropy/IP: exhaustive most-probable-first walk.
			ag.eip = eip.Build(ag.seeds).Generate(genBudgetPerAS)
			// 6Gen: dense-range growth.
			ag.sixgen = sixgen.Generate(ag.seeds, genBudgetPerAS, sixgen.Config{})
		}
	})

	hitlist := l.store().All()
	seenEIP := ip6.NewSet(1 << 16)
	seen6G := ip6.NewSet(1 << 16)
	for _, ag := range gens {
		for _, a := range ag.eip {
			if seenEIP.Add(a) {
				g.genEIP = append(g.genEIP, a)
			}
		}
		for _, a := range ag.sixgen {
			if seen6G.Add(a) {
				g.gen6Gen = append(g.gen6Gen, a)
			}
		}
	}

	// Routable + new filtering, overlap accounting.
	filterNew := func(gen []ip6.Addr) []ip6.Addr {
		var out []ip6.Addr
		for _, a := range gen {
			if l.P.World.Table.IsRouted(a) && !hitlist.Contains(a) {
				out = append(out, a)
			}
		}
		return out
	}
	g.genEIP = filterNew(g.genEIP)
	g.gen6Gen = filterNew(g.gen6Gen)
	g.newEIP, g.new6Gen = len(g.genEIP), len(g.gen6Gen)
	for _, a := range g.genEIP {
		if seen6G.Contains(a) {
			g.overlap = append(g.overlap, a)
		}
	}

	// Probe both sets on all five protocols.
	day := l.measureDay()
	g.scanEIP = l.P.Sweep(g.genEIP, day)
	g.scan6Gen = l.P.Sweep(g.gen6Gen, day)
	overlapSet := ip6.NewSet(len(g.overlap))
	overlapSet.AddSlice(g.overlap)
	respOverlapSeen := map[ip6.Addr]bool{}
	collect := func(s *Scan, masks *[]wire.RespMask, addrs *[]ip6.Addr) {
		for i, m := range s.Masks {
			if m.Any() {
				*masks = append(*masks, m)
				*addrs = append(*addrs, s.Addrs[i])
				if overlapSet.Contains(s.Addrs[i]) && !respOverlapSeen[s.Addrs[i]] {
					respOverlapSeen[s.Addrs[i]] = true
					g.respOverlap++
				}
			}
		}
	}
	collect(g.scanEIP, &g.respEIP, &g.respAddrEIP)
	collect(g.scan6Gen, &g.resp6Gen, &g.respAddr6Gen)
	return g
}

// Sec72 reproduces the learned-address counts: generated, routable+new,
// and tool overlap.
func (l *Lab) Sec72() *Report {
	g := l.genStudy()
	r := &Report{ID: "Sec 7.2", Title: "Learned addresses: Entropy/IP and 6Gen"}
	r.addf("eligible ASes (>= %d non-aliased seeds): %d", l.P.Cfg.GroupMin(), g.eligibleASes)
	r.addf("Entropy/IP new routable addresses: %d", g.newEIP)
	r.addf("6Gen new routable addresses:       %d", g.new6Gen)
	total := g.newEIP + g.new6Gen
	r.addf("generated by both tools: %d (%.2f%% of %d)", len(g.overlap),
		100*float64(len(g.overlap))/float64(max(total, 1)), total)
	return r
}

// Sec73 reproduces the responsiveness of learned addresses.
func (l *Lab) Sec73() *Report {
	g := l.genStudy()
	r := &Report{ID: "Sec 7.3", Title: "Responsiveness of learned addresses"}
	total := g.newEIP + g.new6Gen
	resp := len(g.respEIP) + len(g.resp6Gen)
	r.addf("probed %d learned addresses; responsive: %d (%.2f%%)", total, resp,
		100*float64(resp)/float64(max(total, 1)))
	r.addf("responsive via 6Gen:       %d (rate %.2f%%)", len(g.resp6Gen),
		100*float64(len(g.resp6Gen))/float64(max(g.new6Gen, 1)))
	r.addf("responsive via Entropy/IP: %d (rate %.2f%%)", len(g.respEIP),
		100*float64(len(g.respEIP))/float64(max(g.newEIP, 1)))
	if len(g.overlap) > 0 {
		r.addf("overlap responsive: %d of %d (%.2f%%) — overlapping candidates respond best",
			g.respOverlap, len(g.overlap), 100*float64(g.respOverlap)/float64(len(g.overlap)))
	}
	// AS coverage of responders per tool.
	r.addf("responsive ASes: 6Gen %d, Entropy/IP %d",
		l.tally(g.respAddr6Gen).ASes(), l.tally(g.respAddrEIP).ASes())
	return r
}

// Table7 reproduces the top-5 responsive protocol combinations per tool.
func (l *Lab) Table7() *Report {
	g := l.genStudy()
	r := &Report{ID: "Table 7", Title: "Top responsive protocol combinations: 6Gen vs Entropy/IP"}
	// Combination counts, indexed by mask value; combos rank by combined
	// frequency.
	const masks = 1 << wire.NumProtos
	var c6, ce, all [masks]int
	for _, m := range g.resp6Gen {
		c6[m]++
		all[m]++
	}
	for _, m := range g.respEIP {
		ce[m]++
		all[m]++
	}
	r.addf("%-40s %8s %12s", "combination", "6Gen", "Entropy/IP")
	for _, m := range stats.TopN(all[:], 5) {
		p6 := 100 * float64(c6[m]) / float64(max(len(g.resp6Gen), 1))
		pe := 100 * float64(ce[m]) / float64(max(len(g.respEIP), 1))
		r.addf("%-40s %7.1f%% %11.1f%%", wire.RespMask(m).String(), p6, pe)
	}
	return r
}

// Fig9 reproduces the prefix/AS concentration of responsive generated
// addresses per tool.
func (l *Lab) Fig9() *Report {
	g := l.genStudy()
	r := &Report{ID: "Fig 9", Title: "Prefix/AS distribution of responsive generated addresses"}
	sixT, eipT := l.tally(g.respAddr6Gen), l.tally(g.respAddrEIP)
	r.addConcentration("population", 18, 100, "",
		concRow{"6Gen [AS]", sixT.Concentration(true)},
		concRow{"EIP [AS]", eipT.Concentration(true)},
		concRow{"6Gen [Prefix]", sixT.Concentration(false)},
		concRow{"EIP [Prefix]", eipT.Concentration(false)})
	return r
}

// AblationGenerators compares the exhaustive Entropy/IP generator walk
// (§7.1's improvement) against the original random walk under an equal
// budget — one of the design-choice ablations from DESIGN.md.
func (l *Lab) AblationGenerators() *Report {
	r := &Report{ID: "Ablation", Title: "Exhaustive vs random Entropy/IP generator walk"}
	perAS := l.cleanTargetsByAS()
	sizes := make([]int, len(perAS))
	for i, as := range perAS {
		sizes[i] = len(as.Addrs)
	}
	day := l.measureDay()
	// Use the largest few ASes for a focused comparison. Their models are
	// independent and heavy-tailed in size, so they fan out through a
	// queue into per-AS slots, concatenated in TopN order.
	top := stats.TopN(sizes, 10)
	exhs, rnds := make([][]ip6.Addr, len(top)), make([][]ip6.Addr, len(top))
	par.Queue(len(top), l.P.Cfg.Workers, func(_, k, _ int) {
		as := perAS[top[k]]
		m := eip.Build(as.Addrs)
		exhs[k] = m.Generate(genBudgetPerAS)
		rnds[k] = m.RandomGenerate(genBudgetPerAS, int64(as.ASN))
	})
	exh, rnd := slices.Concat(exhs...), slices.Concat(rnds...)
	rate := func(targets []ip6.Addr) float64 {
		if len(targets) == 0 {
			return 0
		}
		scan := l.P.Sweep(targets, day)
		return float64(len(scan.AnyResponsive())) / float64(len(targets))
	}
	re, rr := rate(exh), rate(rnd)
	r.addf("exhaustive walk: %d candidates, %.2f%% responsive", len(exh), re*100)
	r.addf("random walk:     %d candidates, %.2f%% responsive", len(rnd), rr*100)
	if rr > 0 {
		r.addf("exhaustive/random hit-rate ratio: %.2fx", re/rr)
	}
	return r
}
