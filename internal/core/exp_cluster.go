package core

import (
	"fmt"

	"expanse/internal/cluster"
	"expanse/internal/entropy"
	"expanse/internal/wire"
	"expanse/internal/zesplot"
)

// clusteringReport runs the full §4 method — fingerprint, elbow, k-means,
// summaries — over the given groups and renders the Figure 2-style rows.
// The fingerprints cover nybbles a..a+dim-1; the elbow sweep fans out
// over workers (byte-identical for every count), and the winning k-means
// run is the sweep's own — the chosen k is never re-run.
func clusteringReport(r *Report, groups []entropy.Group, a, workers int) (cluster.Result, []entropy.Group) {
	vectors := entropy.Vectors(groups)
	if len(vectors) == 0 {
		r.addf("no groups above the size threshold")
		return cluster.Result{}, groups
	}
	res, curve := cluster.ChooseK(vectors, min(20, len(vectors)), 0x16c18, workers)
	sums := cluster.Summarize(vectors, res)

	r.addf("groups (networks with >= threshold addresses): %d", len(groups))
	line := "SSE(k):"
	for i, s := range curve {
		if i >= 10 {
			break
		}
		line += fmt.Sprintf(" k%d=%.2f", i+1, s)
	}
	r.Lines = append(r.Lines, line)
	r.addf("elbow k = %d", res.K)
	r.addf("median entropy columns = nybbles %d..%d", a, a+len(vectors[0])-1)
	for _, s := range sums {
		row := fmt.Sprintf("cluster %d: %5.1f%% of networks | median entropy per nybble:", s.ID, s.Share*100)
		for _, h := range s.MedianEntropy {
			row += fmt.Sprintf(" %.1f", h)
		}
		r.Lines = append(r.Lines, row)
	}
	return res, groups
}

// Fig2a reproduces entropy clustering of /32 prefixes over full-address
// fingerprints F9-32 (the paper finds 6 clusters). Grouping consumes the
// hitlist's cached sorted view: /32 groups are contiguous runs located by
// a boundary scan, never map-bucketed from a materialized slice.
func (l *Lab) Fig2a() *Report {
	r := &Report{ID: "Fig 2a", Title: "Entropy clustering of /32s, full-address fingerprints F9-32"}
	groups := entropy.ByPrefixLen(l.store().All().Sorted(), 32, l.P.Cfg.GroupMin(), 9, 32, l.P.Cfg.Workers)
	clusteringReport(r, groups, 9, l.P.Cfg.Workers)
	return r
}

// Fig2b reproduces entropy clustering over IID fingerprints F17-32 (the
// paper finds 4 clusters).
func (l *Lab) Fig2b() *Report {
	r := &Report{ID: "Fig 2b", Title: "Entropy clustering of /32s, IID fingerprints F17-32"}
	groups := entropy.ByPrefixLen(l.store().All().Sorted(), 32, l.P.Cfg.GroupMin(), 17, 32, l.P.Cfg.Workers)
	clusteringReport(r, groups, 17, l.P.Cfg.Workers)
	return r
}

// Fig3a clusters the /32s of UDP/53 responders — the population whose
// low-entropy fingerprints make probabilistic DNS scanning easy (§4.1).
// The responder list inherits the clean scan's target order, which is the
// curated hitlist's sorted order, so the run-boundary grouping applies.
func (l *Lab) Fig3a() *Report {
	r := &Report{ID: "Fig 3a", Title: "Entropy clustering of /32s with UDP/53 responders, F9-32"}
	dns := l.cleanScan().Responsive(wire.UDP53)
	groups := entropy.ByPrefixLen(dns, 32, max(l.P.Cfg.GroupMin()/2, 10), 9, 32, l.P.Cfg.Workers)
	r.addf("UDP/53 responsive addresses: %d", len(dns))
	clusteringReport(r, groups, 9, l.P.Cfg.Workers)
	return r
}

// Fig3b colors BGP prefixes by their entropy cluster (unsized zesplot)
// and reports how homogeneous the coloring is per AS — the paper's
// observation that equally sized prefixes of one AS share a scheme.
func (l *Lab) Fig3b() *Report {
	r := &Report{ID: "Fig 3b", Title: "BGP prefixes colored by F9-32 cluster (unsized zesplot)"}
	groups := entropy.ByBGPPrefix(l.store().All().Sorted(), l.P.World.Table, l.P.Cfg.GroupMin(), 9, 32, l.P.Cfg.Workers)
	res, groups := clusteringReport(r, groups, 9, l.P.Cfg.Workers)
	if res.K == 0 {
		return r
	}
	// Homogeneity: share of multi-prefix ASes whose prefixes all landed
	// in one cluster (single-prefix ASes are trivially uniform and would
	// pad the share, so they are excluded).
	perAS := map[uint32]map[int]bool{}
	prefixes := map[uint32]int{}
	for i, g := range groups {
		asn := uint32(g.ASN)
		if perAS[asn] == nil {
			perAS[asn] = map[int]bool{}
		}
		perAS[asn][res.Assign[i]] = true
		prefixes[asn]++
	}
	multi, uniform := 0, 0
	for asn, cs := range perAS {
		if prefixes[asn] >= 2 {
			multi++
			if len(cs) == 1 {
				uniform++
			}
		}
	}
	r.addf("multi-prefix ASes with clustered prefixes: %d; single-scheme: %d (%.0f%%)",
		multi, uniform, 100*float64(uniform)/float64(max(multi, 1)))
	items := make([]zesplot.Item, len(groups))
	for i, g := range groups {
		items[i] = zesplot.Item{Prefix: g.Prefix, ASN: g.ASN, Value: float64(res.Assign[i] + 1)}
	}
	rects := zesplot.Layout(items, zesplot.Options{Sized: false})
	r.addf("unsized zesplot rectangles: %d", len(rects))
	return r
}
