package core

import (
	"expanse/internal/crowd"
)

// crowdState caches the §9 crowdsourcing study.
type crowdState struct {
	parts []crowd.Participant
	ping  crowd.PingResult
}

// crowdScale maps the simulation scale onto platform task budgets so the
// recruited population fits the simulated client pool.
func (l *Lab) crowdScale() float64 {
	s := l.P.Cfg.Sim.Scale * 0.12
	if s <= 0 {
		s = 0.05
	}
	return s
}

// crowdStudy recruits the crowdsourcing participants and pings them. It
// reads the simulated world only, never the hitlist.
func (l *Lab) crowdStudy() *crowdState {
	return l.crowd.get(func() *crowdState {
		parts := crowd.Recruit(l.P.World, crowd.DefaultPlatforms(l.crowdScale()), l.measureDay(), uint64(l.P.Cfg.Sim.Seed))
		// Ping every IPv6 participant at 15-minute cadence over 14 days (the
		// paper pings at 5-minute cadence over a month; the cadence scaling
		// keeps uptime statistics comparable at simulation cost).
		return &crowdState{parts: parts, ping: crowd.PingStudy(l.P.World, parts, 14, 15)}
	})
}

// Table9 reproduces the crowdsourcing client distribution.
func (l *Lab) Table9() *Report {
	parts := l.crowdStudy().parts
	r := &Report{ID: "Table 9", Title: "Client distribution in the crowdsourcing study"}
	r.addf("%-8s %6s %6s %7s %7s %5s %5s", "platform", "IPv4", "IPv6", "ASes4", "ASes6", "#cc4", "#cc6")
	for _, row := range crowd.Table9(parts) {
		r.addf("%-8s %6d %6d %7d %7d %5d %5d", row.Name, row.IPv4, row.IPv6, row.ASes4, row.ASes6, row.CC4, row.CC6)
	}
	asShare, common := crowd.ASOverlap(parts)
	r.addf("IPv6 AS overlap between platforms: %.1f%%; common addresses: %d", asShare*100, common)
	return r
}

// Sec93 reproduces the client-responsiveness study.
func (l *Lab) Sec93() *Report {
	p := l.crowdStudy().ping
	r := &Report{ID: "Sec 9.3", Title: "Client responsiveness"}
	share := 0.0
	if p.Clients > 0 {
		share = float64(p.Responsive) / float64(p.Clients)
	}
	r.addf("IPv6 clients pinged: %d; responsive: %d (%.1f%%)", p.Clients, p.Responsive, share*100)
	r.addf("RIPE Atlas probes in the same ASes responsive: %.1f%% (upper bound)", p.AtlasResponsive*100)
	r.addf("responsive the whole study period: %d", p.FullPeriod)
	r.addf("active < 1h/day: %.1f%%; active <= 8h/day: %.1f%%", p.UnderHour*100, p.Under8h*100)
	r.addf("daily uptime of dynamic clients: mean %.1f h, median %.1f h", p.MeanUptimeH, p.MedianUptimeH)
	r.addf("unresponsive clients with last hop outside their AS (ISP filtering): %.1f%%", p.LastHopFiltered*100)
	return r
}
