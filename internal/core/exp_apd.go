package core

import (
	"fmt"

	"expanse/internal/apd"
	"expanse/internal/bgp"
	"expanse/internal/fingerprint"
	"expanse/internal/ip6"
	"expanse/internal/probe"
	"expanse/internal/wire"
	"expanse/internal/zesplot"
)

// Table3 reproduces the fan-out example: the 16 pseudo-random targets of
// 2001:db8:407:8000::/64, one per /68 subprefix.
func (l *Lab) Table3() *Report {
	r := &Report{ID: "Table 3", Title: "Multi-level APD fan-out for 2001:db8:407:8000::/64"}
	p := ip6.MustParsePrefix("2001:db8:407:8000::/64")
	for _, a := range apd.FanOut(p) {
		r.addf("%s", a.Expanded())
	}
	return r
}

// stabilityDays is how many APD days the sliding-window study runs — the
// longest history any report asks for.
const stabilityDays = 14

// Table4 reproduces the sliding-window study: unstable prefixes under
// window sizes of 1 to 6 merged days over 14 APD days (window = total
// days merged; 1 = no smoothing).
func (l *Lab) Table4() *Report {
	l.apdDays(stabilityDays)
	r := &Report{ID: "Table 4", Title: "Impact of sliding window on unstable prefix count"}
	line1, line2 := "window:  ", "unstable:"
	prev := -1
	for w := 1; w <= 6; w++ {
		u := l.unstablePrefixes(w)
		line1 += fmt.Sprintf(" %5d", w)
		line2 += fmt.Sprintf(" %5d", u)
		if w == l.P.Cfg.APDWindow && prev > 0 {
			r.addf("reduction at window %d vs 1: %.0f%%", w, 100*(1-float64(u)/float64(prev)))
		}
		if w == 1 {
			prev = u
		}
	}
	r.Lines = append([]string{line1, line2}, r.Lines...)
	return r
}

// Sec53 reproduces the de-aliasing impact numbers: hitlist share removed,
// AS and prefix coverage change, and the Amazon concentration.
func (l *Lab) Sec53() *Report {
	clean, aliased, _ := l.windowEpoch().Split()
	r := &Report{ID: "Sec 5.3", Title: "Impact of de-aliasing on the hitlist"}
	all := l.store().All().Sorted()
	r.addf("hitlist before filtering: %d", len(all))
	r.addf("after removing aliased:  %d (%.1f%% remain)", len(clean), 100*float64(len(clean))/float64(len(all)))
	r.addf("aliased addresses:       %d (%.1f%%)", len(aliased), 100*float64(len(aliased))/float64(len(all)))

	allT, cleanT := l.tally(all), l.tally(clean)
	asAll, pfxAll := allT.ASes(), allT.Prefixes()
	asClean, pfxClean := cleanT.ASes(), cleanT.Prefixes()
	r.addf("AS coverage: %d -> %d (lost %d)", asAll, asClean, asAll-asClean)
	r.addf("prefix coverage: %d -> %d (-%.1f%%)", pfxAll, pfxClean, 100*(1-float64(pfxClean)/float64(max(pfxAll, 1))))

	// Where do aliased addresses live? (The paper: mostly Amazon /48s.)
	top := ""
	for _, e := range l.tally(aliased).TopAS(3) {
		top += fmt.Sprintf(" %s=%.1f%%", l.P.World.Table.AS(e.ASN).Name,
			100*float64(e.Count)/float64(max(len(aliased), 1)))
	}
	r.addf("top ASes among aliased addresses:%s", top)

	// Ground-truth check (simulator only): detection quality.
	tp, fp, fn := 0, 0, 0
	for _, a := range aliased {
		if l.P.World.GroundTruthAliased(a) {
			tp++
		} else {
			fp++
		}
	}
	for _, a := range clean {
		if l.P.World.GroundTruthAliased(a) {
			fn++
		}
	}
	r.addf("ground truth: precision %.3f, recall %.3f",
		float64(tp)/float64(max(tp+fp, 1)), float64(tp)/float64(max(tp+fn, 1)))
	return r
}

// Fig4 reproduces the prefix/AS concentration curves for aliased,
// non-aliased, and all hitlist addresses.
func (l *Lab) Fig4() *Report {
	clean, aliased, _ := l.windowEpoch().Split()
	r := &Report{ID: "Fig 4", Title: "Prefix and AS distribution: aliased vs non-aliased vs all"}
	allT, aliasedT, cleanT := l.tally(l.store().All().Sorted()), l.tally(aliased), l.tally(clean)
	aliasedAS, cleanAS := aliasedT.Concentration(true), cleanT.Concentration(true)
	r.addConcentration("population", 24, 1000, "",
		concRow{"All IPs [AS]", allT.Concentration(true)},
		concRow{"All IPs [Prefix]", allT.Concentration(false)},
		concRow{"Aliased IPs [AS]", aliasedAS},
		concRow{"Aliased IPs [Prefix]", aliasedT.Concentration(false)},
		concRow{"Non-aliased [AS]", cleanAS},
		concRow{"Non-aliased [Prefix]", cleanT.Concentration(false)})
	// The headline shape: aliased concentrated in very few ASes.
	r.addf("top-1 AS share: aliased %.2f vs non-aliased %.2f", aliasedAS.TopFraction(1), cleanAS.TopFraction(1))
	return r
}

// Fig5 reproduces the APD zesplot pair: ICMP responses without APD
// filtering, and the detected aliased prefixes.
func (l *Lab) Fig5() *Report {
	icmp := l.fullScan().Responsive(wire.ICMPv6)
	filter := l.windowEpoch().Filter
	r := &Report{ID: "Fig 5", Title: "Responses to ICMP echo: full input vs detected aliased prefixes"}
	covered := l.tally(icmp).Prefixes()
	r.addf("(a) prefixes with ICMP responses (no APD): %d, responses: %d", covered, len(icmp))

	aliasedPrefixes := filter.AliasedPrefixes()
	// The "hook": aliased /48s by AS.
	by48 := map[bgp.ASN]int{}
	n48 := 0
	for _, p := range aliasedPrefixes {
		if p.Bits() == 48 {
			n48++
			if asn, ok := l.P.World.Table.Origin(p.Addr()); ok {
				by48[asn]++
			}
		}
	}
	r.addf("(b) detected aliased prefixes: %d (%.1f%% of plotted)", len(aliasedPrefixes),
		100*float64(len(aliasedPrefixes))/float64(max(covered, 1)))
	amazon := by48[bgp.FindASN("Amazon")]
	incap := by48[bgp.FindASN("Incapsula")]
	r.addf("aliased /48s: %d total; Amazon %d (outer hook), Incapsula %d (inner hook)", n48, amazon, incap)
	return r
}

// Fig5SVGs returns the two SVG documents of Figure 5.
func (l *Lab) Fig5SVGs() (noAPD, aliased string) {
	icmp := l.fullScan().Responsive(wire.ICMPv6)
	filter := l.windowEpoch().Filter
	tally := l.tally(icmp)
	items := l.allPrefixItems(tally)
	noAPD = zesplot.SVG(items, zesplot.Options{Sized: false, Title: "Fig 5a: ICMP responses without APD"})
	var alItems []zesplot.Item
	for _, p := range filter.AliasedPrefixes() {
		asn, _ := l.P.World.Table.Origin(p.Addr())
		alItems = append(alItems, zesplot.Item{Prefix: p, ASN: asn, Value: float64(tally.Of(p) + 1)})
	}
	aliased = zesplot.SVG(alItems, zesplot.Options{Sized: false, Title: "Fig 5b: detected aliased prefixes"})
	return noAPD, aliased
}

// pairSamples folds one target's two pair probes into the sample slice,
// First before Second, skipping unanswered probes.
func pairSamples(samples []fingerprint.Sample, cols *probe.PairColumns, i int) []fingerprint.Sample {
	for _, c := range [2]*wire.ResultColumns{&cols.First, &cols.Second} {
		if c.OK.Get(i) {
			samples = append(samples, fingerprint.Sample{
				SentAt:   c.SentAt[i],
				HopLimit: c.HopLimit[i],
				TCP:      wire.TCPInfo{TCPFingerprint: c.TCP[i], TSVal: c.TSVal[i]},
			})
		}
	}
	return samples
}

// aliasedFingerprintReports collects §5.4 fingerprint reports over
// aliased /64s whose 16 fan-out addresses all answered TCP/80. The pairs
// are probed on the batched columnar path and analyzed over fingerprint
// values, one pair-column buffer set reused across prefixes.
func (l *Lab) aliasedFingerprintReports() []fingerprint.Report {
	// The verdict column's order pins the per-prefix probe schedule and
	// the reports order (among /64s it is plain address order).
	verdicts := l.windowEpoch().Verdicts
	day := l.measureDay()
	var reports []fingerprint.Report
	var cols probe.PairColumns
	var samples []fingerprint.Sample
	for i, p := range verdicts.Prefixes {
		if !verdicts.Aliased[i] || p.Bits() != 64 {
			continue
		}
		fo := apd.FanOut(p)
		l.P.ProbePairColumns(fo[:], day, &cols)
		samples = samples[:0]
		answered := 0
		for i := 0; i < apd.Branches; i++ {
			if cols.First.OK.Get(i) {
				answered++
			}
			samples = pairSamples(samples, &cols, i)
		}
		if answered < apd.Branches {
			continue // the paper analyzes fully-responsive prefixes only
		}
		reports = append(reports, fingerprint.Analyze(samples))
	}
	return reports
}

// Table5 reproduces the fingerprint consistency table over aliased /64s.
func (l *Lab) Table5() *Report {
	r := &Report{ID: "Table 5", Title: "Fingerprinting aliased /64 prefixes: inconsistencies per test"}
	reports := l.aliasedFingerprintReports()
	t := fingerprint.Tabulate(reports)
	r.addf("aliased /64 prefixes with all 16 TCP/80 fan-out answers: %d", t.Prefixes)
	names := []string{"iTTL", "Optionstext", "WScale", "MSS", "WSize"}
	per := []int{t.ITTL, t.Options, t.WScale, t.MSS, t.WSize}
	for i, n := range names {
		r.addf("%-12s incs=%-5d cum-incs=%-5d cum-consistent=%d", n, per[i], t.Cumulative[i], t.Prefixes-t.Cumulative[i])
	}
	r.addf("%-12s consistent=%d (%.1f%%)", "Timestamps", t.TSConsistent,
		100*float64(t.TSConsistent)/float64(max(t.Prefixes, 1)))
	return r
}

// Table6 reproduces the validation: the same tests on non-aliased /64s
// with at least 16 responding addresses.
func (l *Lab) Table6() *Report {
	scan := l.cleanScan()
	r := &Report{ID: "Table 6", Title: "Validation: consistency of aliased vs non-aliased prefixes"}
	day := l.measureDay()

	// Non-aliased /64s with >= 16 TCP/80-responsive addresses.
	per64 := map[ip6.Prefix][]ip6.Addr{}
	for i, a := range scan.Addrs {
		if scan.Masks[i].Has(wire.TCP80) {
			p := ip6.PrefixFrom(a, 64)
			per64[p] = append(per64[p], a)
		}
	}
	var nonAliased []fingerprint.Report
	var cols probe.PairColumns
	var samples []fingerprint.Sample
	for _, p64 := range ip6.SortedKeys(per64) {
		addrs := per64[p64]
		if len(addrs) < 16 {
			continue
		}
		l.P.ProbePairColumns(addrs[:16], day, &cols)
		samples = samples[:0]
		for i := 0; i < 16; i++ {
			samples = pairSamples(samples, &cols, i)
		}
		if len(samples) < 16 {
			continue
		}
		nonAliased = append(nonAliased, fingerprint.Analyze(samples))
	}

	aliasedT := fingerprint.Tabulate(l.aliasedFingerprintReports())
	nonT := fingerprint.Tabulate(nonAliased)
	ai, ac, aid := aliasedT.Shares()
	ni, nc, nid := nonT.Shares()
	r.addf("%-22s %8s %8s %8s  (n)", "Scan type", "Incons.", "Cons.", "Indec.")
	r.addf("%-22s %7.1f%% %7.1f%% %7.1f%%  (%d)", "Non-aliased prefixes", ni*100, nc*100, nid*100, nonT.Prefixes)
	r.addf("%-22s %7.1f%% %7.1f%% %7.1f%%  (%d)", "Aliased prefixes", ai*100, ac*100, aid*100, aliasedT.Prefixes)
	return r
}

// Sec55 reproduces the comparison with Murdock et al.'s static-/96 APD:
// addresses found aliased by each method and probe budgets.
func (l *Lab) Sec55() *Report {
	window := l.windowEpoch()
	r := &Report{ID: "Sec 5.5", Title: "Multi-level APD vs Murdock et al. static /96"}
	hitlist := l.store().All().Sorted()
	md := apd.NewMurdockDetector(l.P.World)
	cands := md.Candidates(hitlist)
	mf := apd.NewFilter(md.Detect(cands, l.measureDay()))

	// Both filters classify the sorted hitlist by linear interval merge;
	// ours is the memoized window-snapshot split.
	_, _, oursBits := window.Split()
	theirsBits := mf.Classify(hitlist, l.P.Cfg.Workers)
	oursOnly, theirsOnly, both := 0, 0, 0
	for i := range hitlist {
		ours := oursBits[i]
		theirs := theirsBits[i]
		switch {
		case ours && theirs:
			both++
		case ours:
			oursOnly++
		case theirs:
			theirsOnly++
		}
	}
	r.addf("aliased by both methods:        %d", both)
	r.addf("aliased only by multi-level:    %d", oursOnly)
	r.addf("aliased only by Murdock (/96):  %d", theirsOnly)
	// The multi-level bill covers the stability study's days: the full
	// history, whichever reports ran (or are running) alongside.
	l.apdDays(stabilityDays)
	probes := l.P.APDProbesSent()
	r.addf("probe packets: multi-level %d vs Murdock %d (%.2fx)",
		probes, md.ProbesSent, float64(md.ProbesSent)/float64(max(probes, 1)))
	// §5.1 case taxonomy over our verdicts.
	cc := apd.CaseCounts(window.Verdicts)
	r.addf("nested-pair cases: both-aliased=%d both-clean=%d more-aliased=%d anomaly(case 4)=%d",
		cc[apd.CaseBothAliased], cc[apd.CaseBothNonAliased], cc[apd.CaseMoreAliasedLessNot], cc[apd.CaseMoreNotLessAliased])
	return r
}
