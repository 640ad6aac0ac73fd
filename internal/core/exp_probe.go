package core

import (
	"fmt"
	"slices"

	"expanse/internal/ip6"
	"expanse/internal/sources"
	"expanse/internal/stats"
	"expanse/internal/wire"
	"expanse/internal/zesplot"
)

// Fig6 reproduces the response zesplot: non-aliased ICMP-responsive
// addresses per announced BGP prefix.
func (l *Lab) Fig6() *Report {
	scan := l.cleanScan()
	r := &Report{ID: "Fig 6", Title: "ICMP-responsive addresses per BGP prefix (curated hitlist)"}
	icmp := scan.Responsive(wire.ICMPv6)
	tally := l.tally(icmp)
	r.addf("responsive addresses (ICMP): %d", len(icmp))
	r.addf("responsive (any protocol):   %d of %d targets", len(scan.AnyResponsive()), len(scan.Addrs))
	r.addf("BGP prefixes with responses: %d of %d announced", tally.Prefixes(), l.P.World.Table.NumPrefixes())
	r.addf("ASes with responses:         %d", tally.ASes())
	r.addf("max responses in one prefix: %d", slices.Max(tally.Counts))
	return r
}

// Fig6SVG returns the Figure 6 zesplot SVG.
func (l *Lab) Fig6SVG() string {
	items := l.allPrefixItems(l.tally(l.cleanScan().Responsive(wire.ICMPv6)))
	return zesplot.SVG(items, zesplot.Options{Sized: false, Title: "Fig 6: ICMP responses per BGP prefix"})
}

// Fig7 reproduces the conditional cross-protocol responsiveness matrix
// P(Y responds | X responds).
func (l *Lab) Fig7() *Report {
	r := &Report{ID: "Fig 7", Title: "Conditional probability of cross-protocol responsiveness"}
	names := make([]string, 0, wire.NumProtos)
	for _, p := range wire.Protos {
		names = append(names, p.String())
	}
	m := stats.NewCondMatrix(names)
	for _, mask := range l.cleanScan().Masks {
		if mask.Any() {
			// RespMask bit i is protocol i in Protos order — the matrix
			// consumes the mask directly, no []bool per observation.
			m.ObserveMask(uint32(mask))
		}
	}
	header := fmt.Sprintf("%-8s", "Y\\X")
	for _, n := range names {
		header += fmt.Sprintf(" %6s", n)
	}
	r.Lines = append(r.Lines, header)
	r.Lines = append(r.Lines, m.Rows()...)
	r.addf("P(ICMP|TCP/80) = %.2f (the paper: >= 0.89 for all X)", m.P("ICMP", "TCP/80"))
	r.addf("P(TCP/80|UDP/443) = %.2f (QUIC servers are web servers)", m.P("TCP/80", "UDP/443"))
	return r
}

// Fig8 reproduces the longitudinal responsiveness study: for each source
// (with CT and AXFR split by QUIC), the fraction of day-0 responders
// still responding on each of 14 days.
func (l *Lab) Fig8() *Report {
	long := l.longitudinal()
	r := &Report{ID: "Fig 8", Title: "Responsiveness over time by source (baseline day 0)"}
	order := []string{
		"DL", "FDNS", "CT\\QUIC", "CT QUIC", "AXFR\\QUIC", "AXFR QUIC",
		"Bitnodes", "RIPE Atlas", "Scamper",
	}
	for _, name := range order {
		series, ok := long[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-11s", name)
		for _, v := range series {
			line += fmt.Sprintf(" %4.2f", v)
		}
		r.Lines = append(r.Lines, line)
	}
	return r
}

// longitudinal probes each source's day-0 responders daily for 14 days,
// as in §6.3: stable sources (DL, FDNS, Atlas) barely decay, while
// client/CPE sources (Bitnodes, Scamper) lose a fifth to a third. The
// series are keyed by Fig 8's row label.
func (l *Lab) longitudinal() map[string][]float64 { return l.series.get(l.buildLongitudinal) }

func (l *Lab) buildLongitudinal() map[string][]float64 {
	masks := l.cleanScan().maskIndex()
	long := map[string][]float64{}
	day0 := l.measureDay()

	type row struct {
		label    string
		baseline []ip6.Addr
		proto    wire.Proto // the protocol tracked; -1 = any
		any      bool
	}
	var rows []row
	srcLabel := map[string]string{
		"Domainlists": "DL", "FDNS": "FDNS", "Bitnodes": "Bitnodes",
		"RIPE Atlas": "RIPE Atlas", "Scamper": "Scamper",
	}
	for _, src := range sources.Names {
		set := l.store().PerSource(src)
		var anyBase, quicBase []ip6.Addr
		set.Each(func(a ip6.Addr) bool {
			m, ok := masks[a]
			if !ok {
				return true
			}
			if m.Any() {
				anyBase = append(anyBase, a)
			}
			if m.Has(wire.UDP443) {
				quicBase = append(quicBase, a)
			}
			return true
		})
		switch src {
		case "CT", "AXFR":
			rows = append(rows,
				row{label: src + "\\QUIC", baseline: anyBase, any: true},
				row{label: src + " QUIC", baseline: quicBase, proto: wire.UDP443})
		default:
			rows = append(rows, row{label: srcLabel[src], baseline: anyBase, any: true})
		}
	}

	// Each row streams its 14 daily sweeps through one reused buffer set
	// (5 protocols × 14 days × 9 rows of independent scans before — the
	// masks are folded into a counter per day, never retained).
	const days = 14
	for _, rw := range rows {
		if len(rw.baseline) == 0 {
			continue
		}
		series := make([]float64, 0, days)
		l.P.SweepDays(rw.baseline, day0, days, func(_ int, masks []wire.RespMask) {
			n := 0
			for _, m := range masks {
				if (rw.any && m.Any()) || (!rw.any && m.Has(rw.proto)) {
					n++
				}
			}
			series = append(series, float64(n)/float64(len(rw.baseline)))
		})
		long[rw.label] = series
	}
	return long
}
