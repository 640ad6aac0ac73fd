package core

import (
	"fmt"
	"slices"

	"expanse/internal/bgp"
	"expanse/internal/ip6"
	"expanse/internal/sources"
	"expanse/internal/stats"
	"expanse/internal/zesplot"
)

// Table1 reproduces the prior-work comparison: the static rows are the
// published numbers of the four previous studies; the "This work" row is
// measured from the pipeline.
func (l *Lab) Table1() *Report {
	r := &Report{ID: "Table 1", Title: "Comparison with previous work"}
	r.addf("%-22s %10s %8s %8s  %3s %5s %4s", "Work", "#publ.", "#pfx.", "#ASes", "Cts", "Prob.", "APD")
	r.addf("%-22s %10s %8s %8s  %3s %5s %4s", "Gasser et al. [36]", "2.7M", "5.8k", "8.6k", "y", "y", "n")
	r.addf("%-22s %10s %8s %8s  %3s %5s %4s", "Foremski et al. [33]", "620k", "<100", "<100", "y", "y", "n")
	r.addf("%-22s %10s %8s %8s  %3s %5s %4s", "Fiebig et al. [29]", "2.8M", "n/a", "n/a", "y", "n", "n")
	r.addf("%-22s %10s %8s %8s  %3s %5s %4s", "Murdock et al. [56]", "1.0M", "2.8k", "2.4k", "y", "y", "~")
	tot := l.store().TotalStat(l.P.World.Table)
	r.addf("%-22s %10d %8d %8d  %3s %5s %4s", "This work (measured)", tot.IPs, tot.Prefixes, tot.ASes, "y", "y", "y")
	return r
}

// Table2 reproduces the hitlist-source overview.
func (l *Lab) Table2() *Report {
	r := &Report{ID: "Table 2", Title: "Overview of hitlist sources"}
	r.addf("%-12s %9s %9s %7s %7s  %s", "Name", "IPs", "new IPs", "#ASes", "#PFXes", "Top-3 ASes")
	st := l.store()
	rows := append(st.Stats(l.P.World.Table), st.TotalStat(l.P.World.Table))
	for _, s := range rows {
		top := ""
		for _, ts := range s.TopAS {
			top += fmt.Sprintf(" %s=%.1f%%", ts.Name, ts.Share*100)
		}
		r.addf("%-12s %9d %9d %7d %7d %s", s.Name, s.IPs, s.NewIPs, s.ASes, s.Prefixes, top)
	}
	return r
}

// Fig1a reproduces the cumulative source runup.
func (l *Lab) Fig1a() *Report {
	r := &Report{ID: "Fig 1a", Title: "Cumulative runup of IPv6 addresses per source"}
	runup := l.store().Runup()
	header := fmt.Sprintf("%-6s", "day")
	for _, n := range sources.Names {
		header += fmt.Sprintf("%*s", 12, n)
	}
	r.Lines = append(r.Lines, header+fmt.Sprintf(" %12s", "total"))
	for _, pt := range runup {
		line := fmt.Sprintf("%-6d", pt.Day)
		for _, n := range sources.Names {
			line += fmt.Sprintf(" %11d", pt.Cumulative[n])
		}
		line += fmt.Sprintf(" %12d", pt.Total)
		r.Lines = append(r.Lines, line)
	}
	if len(runup) >= 2 {
		first, last := runup[0].Total, runup[len(runup)-1].Total
		r.addf("growth factor over the period: %.1fx", float64(last)/float64(max(first, 1)))
	}
	return r
}

// Fig1b reproduces the per-source AS-distribution CDFs: the fraction of
// each source's addresses inside its top-X ASes.
func (l *Lab) Fig1b() *Report {
	r := &Report{ID: "Fig 1b", Title: "AS distribution per source (fraction in top-X ASes)"}
	rows := make([]concRow, len(sources.Names))
	for i, name := range sources.Names {
		rows[i] = concRow{name, l.P.World.Table.Tally(l.P.Cfg.Workers, l.store().PerSource(name).Shards()...).Concentration(true)}
	}
	r.addConcentration("source", 12, 1000, "   (gini %.2f)", rows...)
	return r
}

// Fig1c renders the zesplot of hitlist addresses over BGP prefixes and
// reports summary statistics; the SVG itself is written by cmd/zesplot.
func (l *Lab) Fig1c() *Report {
	r := &Report{ID: "Fig 1c", Title: "Hitlist addresses mapped to BGP prefixes (zesplot)"}
	tally := l.tally(l.store().All().Sorted())
	items := l.allPrefixItems(tally)
	rects := zesplot.Layout(items, zesplot.Options{Sized: true})
	covered := tally.Prefixes()
	r.addf("announced prefixes plotted: %d", len(rects))
	r.addf("prefixes with hitlist addresses: %d (%.1f%%)", covered, 100*float64(covered)/float64(max(len(items), 1)))
	r.addf("max addresses in one prefix: %d", slices.Max(tally.Counts))
	return r
}

// Fig1cSVG returns the actual SVG document for Figure 1c.
func (l *Lab) Fig1cSVG() string {
	items := l.allPrefixItems(l.tally(l.store().All().Sorted()))
	return zesplot.SVG(items, zesplot.Options{Sized: true, Title: "Fig 1c: hitlist addresses per BGP prefix"})
}

// tally attributes addresses to their announced prefixes and origin ASes
// (bgp.Table.Tally) — the one path behind every per-prefix and per-AS
// figure. All but the rDNS walk's addresses are address-sorted (a set's
// cached sorted view, or a slice derived from one in order), so the
// attribution is a cursor walk.
func (l *Lab) tally(addrs []ip6.Addr) *bgp.Tally {
	return l.P.World.Table.Tally(l.P.Cfg.Workers, addrs)
}

// allPrefixItems builds zesplot items for every announced prefix, valued
// by the tally (zero-count prefixes render white).
func (l *Lab) allPrefixItems(tally *bgp.Tally) []zesplot.Item {
	anns := l.P.World.Table.Announcements()
	items := make([]zesplot.Item, len(anns))
	for id, ann := range anns {
		items[id] = zesplot.Item{Prefix: ann.Prefix, ASN: ann.Origin, Value: float64(tally.Counts[id])}
	}
	return items
}

// concRow is one row of a concentration table: a population and how its
// addresses concentrate over ASes or prefixes.
type concRow struct {
	label string
	conc  *stats.Concentration
}

// addConcentration appends a concentration table (Figs 1b, 4, 9, 10): a
// header of the log-spaced top-X points up to maxX, then per row the
// fraction of its addresses inside its top-X groups, labels left-aligned
// in width columns. A non-empty gini format appends each row's Gini
// coefficient.
func (r *Report) addConcentration(head string, width, maxX int, gini string, rows ...concRow) {
	points := stats.LogPoints(maxX)
	header := fmt.Sprintf("%-*s", width, head)
	for _, x := range points {
		header += fmt.Sprintf(" %6d", x)
	}
	r.Lines = append(r.Lines, header)
	for _, row := range rows {
		line := fmt.Sprintf("%-*s", width, row.label)
		for _, f := range row.conc.Curve(points) {
			line += fmt.Sprintf(" %6.3f", f)
		}
		if gini != "" {
			line += fmt.Sprintf(gini, row.conc.Gini())
		}
		r.Lines = append(r.Lines, line)
	}
}
