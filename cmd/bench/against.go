package main

import (
	"fmt"
	"io"
	"math"

	"expanse/internal/stats"
)

// phaseBound judges the undeclared phase metrics in a comparison; they
// are printed for attribution and never decide the exit code.
const phaseBound = 0.10

// row is one metric of one workload, old run against new.
type row struct {
	Workload, Metric, Unit string
	Old, New               float64
	Worse                  float64 // share of Old by which New is worse; negative = better
	Bound                  float64
	Gated                  bool // a declared end-to-end metric
	Verdict                string
}

// verdict applies the rule of the choosing-metrics guide: a metric whose
// run-to-run spread (quartile to quartile, as a share of the median, on
// either side) is wider than its bound cannot be called unchanged while
// the two sides' runs overlap — it is unresolved, whatever the medians
// say.
func verdict(old, cur summary, better string, bound float64) (worse float64, v string) {
	worse = (cur.Median - old.Median) / math.Abs(old.Median)
	if better == "higher" {
		worse = -worse
	}
	spread := math.Max(old.spread(), cur.spread())
	overlap := old.Min <= cur.Max && cur.Min <= old.Max
	switch {
	case spread > bound && overlap:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compare pairs the untraced results of two files by workload and
// judges every metric both measured.
func compare(old, cur resultFile) []row {
	gate := map[string]metricDef{}
	for _, d := range endToEnd {
		gate[d.Name] = d
	}
	var rows []row
	for _, c := range cur.Results {
		for _, o := range old.Results {
			if o.Workload != c.Workload || o.Trace || c.Trace {
				continue
			}
			for _, name := range stats.SortedKeys(c.Metrics) {
				om, ok := o.Metrics[name]
				if !ok {
					continue
				}
				d, gated := gate[name]
				if !gated {
					d = metricDef{Bound: phaseBound, Better: "lower"}
					if om.Unit == "Mprobes/s" {
						d.Better = "higher"
					}
				}
				r := row{Workload: c.Workload, Metric: name, Unit: om.Unit, Old: om.Median, New: c.Metrics[name].Median, Bound: d.Bound, Gated: gated}
				r.Worse, r.Verdict = verdict(om, c.Metrics[name], d.Better, d.Bound)
				rows = append(rows, r)
			}
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []row) {
	fmt.Fprintf(w, "\n%-10s %-24s %12s %12s %-10s %8s %7s  %s\n", "workload", "metric", "old", "new", "unit", "worse", "bound", "verdict")
	for _, r := range rows {
		kind := ""
		if !r.Gated {
			kind = " (phase)"
		}
		fmt.Fprintf(w, "%-10s %-24s %12.4f %12.4f %-10s %+7.1f%% %6.0f%%  %s%s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, 100*r.Worse, 100*r.Bound, r.Verdict, kind)
	}
}
