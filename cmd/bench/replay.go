package main

import (
	"bytes"
	"runtime/metrics"

	"expanse/internal/apd"
	"expanse/internal/bgp"
	"expanse/internal/cluster"
	"expanse/internal/core"
	"expanse/internal/dnssim"
	"expanse/internal/eip"
	"expanse/internal/entropy"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/probe"
	"expanse/internal/sixgen"
	"expanse/internal/snap"
	"expanse/internal/sources"
	"expanse/internal/stats"
	"expanse/internal/wire"
)

// replays runs, after the main path and under a root of their own, the
// kernels the main path's public calls contain but do not expose: each
// is the same public function on the same inputs, so its wall reads as
// that layer's share of the call that contains it, and never inflates
// the main path's spans.
func (c *child) replays() {
	if c.s.Failed > 0 {
		return // the inputs the kernels need are not trustworthy
	}
	m, tr, p, workers := c.s.Metrics, c.tr, c.p, c.cfg.Workers

	// World plane: standalone constructors, then single-goroutine
	// ProbeBatch over the fresh (cold machine-profile) world.
	var world *netsim.Internet
	tr.do("netsim.New", func() { world = netsim.New(c.cfg.Sim) })
	tr.do("dnssim.New", func() { dnssim.New(world) })
	sorted := p.Hitlist().Sorted()
	day := world.Horizon()
	m["netsim.probebatch_cold_mpps"] = c.probeBatch("netsim.ProbeBatch.cold", world, sorted, day)
	m["netsim.probebatch_sorted_mpps"] = c.probeBatch("netsim.ProbeBatch.sorted", world, sorted, day)
	m["netsim.probebatch_unsorted_mpps"] = c.probeBatch("netsim.ProbeBatch.unsorted", world, c.shuffled(sorted), day)
	stride := max(1, len(sorted)/100_000)
	n := 0
	tr.do("netsim.Probe", func() {
		for i := 0; i < len(sorted); i += stride {
			world.Probe(sorted[i], wire.ICMPv6, day, wire.Time(i))
			n++
		}
	})
	m["netsim.probe_single_mpps"] = per(float64(n)/1e6, tr.seconds("netsim.Probe"))

	c.replayCollect()

	switch c.w.Kind {
	case "days":
		c.replayAPD(world, day)
	case "sweep":
		sc := probe.New(world, probe.WithWorkers(workers), probe.WithSeed(uint64(c.seed)))
		var cols wire.ResultColumns
		cols.ResetOK(len(sorted))
		tr.do("probe.ScanColumns", func() { sc.ScanColumns(ip6.Addrs(sorted), wire.ICMPv6, day, &cols) })
		m["probe.scancolumns_mpps"] = per(float64(len(sorted))/1e6, tr.seconds("probe.ScanColumns"))
		m["probe.responsive_share"] = per(float64(cols.OK.Count()), float64(len(sorted)))
	case "reports":
		c.replayAnalysis()
	}
	if c.last != nil {
		c.apdCounts(world)
	}
}

// probeBatch sends every address once per protocol through ProbeBatch
// on the calling goroutine and returns the rate in Mprobes/s.
func (c *child) probeBatch(span string, world *netsim.Internet, addrs []ip6.Addr, day int) float64 {
	if len(addrs) == 0 {
		return 0
	}
	const chunk = 8192
	at := make([]wire.Time, chunk)
	for i := range at {
		at[i] = wire.Time(i) * 3
	}
	var cols wire.ResultColumns
	c.tr.do(span, func() {
		for _, proto := range wire.Protos {
			for lo := 0; lo < len(addrs); lo += chunk {
				hi := min(lo+chunk, len(addrs))
				cols.ResetOK(hi - lo)
				world.ProbeBatch(addrs[lo:hi], proto, day, at[:hi-lo], &cols, 0)
			}
		}
	})
	return per(float64(wire.NumProtos*len(addrs))/1e6, c.tr.seconds(span))
}

// replayCollect re-runs the collection epochs over the pipeline's own
// world and DNS view with a span around every Source.Collect and every
// store operation — sources.Store.CollectDay's loop, opened up.
func (c *child) replayCollect() {
	m, tr, p, sim, workers := c.s.Metrics, c.tr, c.p, c.cfg.Sim, c.cfg.Workers
	srcs := []sources.Source{
		sources.NewDL(p.DNS, sim), sources.NewFDNS(p.DNS, sim), sources.NewCT(p.DNS, sim), sources.NewAXFR(p.DNS, sim),
		sources.NewBitnodes(p.World), sources.NewAtlas(p.World), sources.NewScamper(p.World),
	}
	all := ip6.NewShardSetWorkers(4096, workers)
	perSrc := make([]*ip6.ShardSet, len(srcs))
	for i := range perSrc {
		perSrc[i] = ip6.NewShardSetWorkers(1024, workers)
	}
	collected := 0
	tr.do("replay.collect", func() {
		for e := 0; e < sim.Epochs; e++ {
			for i, s := range srcs {
				var addrs []ip6.Addr
				tr.do("sources.Collect."+sourceShort[s.Name()], func() { addrs = s.Collect(e*sim.EpochDays, all) })
				collected += len(addrs)
				tr.do("ip6.AddSlice", func() {
					perSrc[i].AddSlice(addrs)
					all.AddSlice(addrs)
				})
			}
		}
		tr.do("ip6.Compact", func() {
			all.Compact()
			for _, set := range perSrc {
				set.CompactCols()
			}
		})
	})
	c.op(all.Len() == p.Hitlist().Len(), "replayed collection holds %d addresses, the pipeline's %d", all.Len(), p.Hitlist().Len())
	m["sources.addrs_collected"] = float64(collected)
	m["sources.dedup_ratio"] = per(float64(all.Len()), float64(collected))
}

// replayAPD replays candidate derivation, fan-out probing of the day-0
// candidates, and each epoch's seal kernels on that epoch's own inputs.
func (c *child) replayAPD(world *netsim.Internet, day int) {
	m, tr, p, workers := c.s.Metrics, c.tr, c.p, c.cfg.Workers
	tr.do("apd.Candidates", func() {
		cands := apd.HitlistCandidates(p.Hitlist(), c.cfg.MinTargets)
		cands = append(cands, apd.BGPCandidates(p.World.Table)...)
		apd.NewCandidateTable(cands)
	})
	day0 := c.epochs[0].Candidates
	fan := make([]ip6.Addr, 0, len(day0)*apd.Branches)
	for _, cand := range day0 {
		t := apd.FanOut(cand.Prefix)
		fan = append(fan, t[:]...)
	}
	m["netsim.probebatch_fanout_mpps"] = c.probeBatch("netsim.ProbeBatch.fanout", world, fan, day)

	sc := probe.New(p.World, probe.WithWorkers(workers), probe.WithSeed(uint64(c.seed)))
	for _, ep := range c.epochs {
		var f *apd.Filter
		var clean []ip6.Addr
		tr.do("apd.MergeColumns", func() { apd.MergeColumns(ep.Window, len(ep.Merged), workers) })
		tr.do("apd.NewFilter", func() { f = apd.NewFilter(ep.Verdicts) })
		if ep.Scan == nil {
			continue // without the seal sweep nothing splits the hitlist
		}
		tr.do("apd.SplitSorted", func() { clean, _, _ = f.SplitSorted(ep.Hitlist.Seq(), workers) })
		tr.do("probe.SweepSeqInto", func() { sc.SweepSeqInto(ip6.Addrs(clean), ep.Day, nil) })
	}
	if scan := c.last.Scan; scan != nil {
		m["probe.responsive_share"] = per(float64(countAny(scan.Masks)), float64(len(scan.Masks)))
	}

	if c.w.Resume {
		// Resume begins with core.New; the main path's own core.New ran in
		// a cold process, so what Resume paid for it is measured again here.
		tr.do("core.New.warm", func() { core.New(c.cfg) })
		sorted := p.Hitlist().Sorted()
		var buf bytes.Buffer
		tr.do("snap.Writer", func() {
			w := snap.NewWriter(&buf)
			w.Section("HITL")
			w.AddrCols(sorted)
			c.op(w.Close() == nil, "snap encode failed")
		})
		size := float64(buf.Len()) / 1e6
		tr.do("snap.Reader", func() {
			r, err := snap.NewReader(&buf)
			if err == nil {
				_, err = r.Next()
			}
			c.op(err == nil && len(r.AddrCols()) == len(sorted) && r.Err() == nil, "snap decode failed: %v", err)
		})
		m["snap.encode_mb_per_s"] = per(size, tr.seconds("snap.Writer"))
		m["snap.decode_mb_per_s"] = per(size, tr.seconds("snap.Reader"))
	}
}

// replayAnalysis replays the §7.1 per-AS generation loop and the §4
// entropy-clustering kernels on the published epoch's clean targets.
func (c *child) replayAnalysis() {
	tr, p, workers := c.tr, c.p, c.cfg.Workers
	groupMin := max(20, int(100*c.cfg.Sim.Scale)) // Lab.groupMin
	perAS := map[bgp.ASN][]ip6.Addr{}
	for _, a := range p.Latest().CleanTargets() {
		if asn, ok := p.World.Table.Origin(a); ok {
			perAS[asn] = append(perAS[asn], a)
		}
	}
	for _, asn := range stats.SortedKeys(perAS) {
		seeds := perAS[asn]
		if len(seeds) < groupMin {
			continue
		}
		var model *eip.Model
		tr.do("eip.Build", func() { model = eip.Build(seeds) })
		tr.do("eip.Generate", func() { model.Generate(1000) })
		tr.do("sixgen.Generate", func() { sixgen.Generate(seeds, 1000, sixgen.Config{}) })
	}
	seq := p.Hitlist().SortedSeq()
	var groups []entropy.Group
	tr.do("entropy.ByPrefixLen", func() { groups = entropy.ByPrefixLen(seq, 32, groupMin, 9, 32, workers) })
	tr.do("entropy.FingerprintSeq", func() { entropy.FingerprintSeq(seq, 9, 32, workers) })
	vectors := entropy.Vectors(groups)
	tr.do("cluster.ElbowResults", func() { cluster.ElbowResults(vectors, min(20, len(vectors)), 0x16c18, workers) })
}

// apdCounts scores the last published epoch against the world's ground
// truth, address by address over the hitlist.
func (c *child) apdCounts(world *netsim.Internet) {
	m, last := c.s.Metrics, c.last
	m["apd.probes_sent"] = float64(c.ck().APDProbes)
	m["apd.candidates_final"] = float64(len(last.Candidates))
	if len(c.epochs) > 0 {
		d0 := len(c.epochs[0].Candidates)
		m["apd.candidates_day0"] = float64(d0)
		m["apd.narrow_ratio"] = per(float64(len(last.Candidates)), float64(d0))
	}
	m["apd.filter_intervals"] = float64(len(last.Filter.Intervals()))
	m["apd.aliased_prefixes"] = float64(len(last.Filter.AliasedPrefixes()))
	_, _, aliased := last.Split()
	var tp, fp, fn float64
	for i, a := range last.Hitlist.Sorted() {
		switch truth := world.GroundTruthAliased(a); {
		case aliased[i] && truth:
			tp++
		case aliased[i]:
			fp++
		case truth:
			fn++
		}
	}
	if tp > 0 {
		m["apd.precision"], m["apd.recall"] = tp/(tp+fp), tp/(tp+fn)
	}
}

// layerMetrics turns the recorded spans into the per-layer metrics.
func (c *child) layerMetrics() {
	m, tr := c.s.Metrics, c.tr
	total := tr.seconds("bench.main")
	m["trace.total_s"] = total
	m["trace.coverage_pct"] = 100 * tr.childCoverage("bench.main")
	m["netsim.new_s"] = tr.seconds("netsim.New")
	m["dnssim.new_s"] = tr.seconds("dnssim.New")
	pct := func(metric string, spans ...string) {
		for _, s := range spans {
			m[metric] += 100 * tr.seconds(s) / total
		}
	}
	pct("core.new_pct", "core.New", "core.NewLab")
	pct("core.collect_pct", "core.Collect")
	pct("core.probeday_pct", "core.ProbeDay")
	pct("core.seal_pct", "core.Seal")
	pct("core.runapd_pct", "core.RunAPD")
	pct("core.resume_pct", "core.Resume")
	pct("core.sweep_cold_pct", "core.SweepSet")
	pct("core.sweep_sorted_pct", "core.SweepDays.sorted")
	pct("core.sweep_unsorted_pct", "core.SweepDays.unsorted")
	pct("core.pairs_pct", "core.ProbePairColumns")
	pct("core.reports_pct", "bench.reports")
	named := 0.0
	for _, id := range tracedReports {
		pct("core.report."+id+"_pct", "core.report."+id)
		named += m["core.report."+id+"_pct"]
	}
	m["core.report.other_pct"] = m["core.reports_pct"] - named

	for _, name := range sources.Names {
		pct("sources.collect."+sourceShort[name]+"_pct", "sources.Collect."+sourceShort[name])
	}
	pct("ip6.add_pct", "ip6.AddSlice")
	pct("ip6.compact_pct", "ip6.Compact")
	pct("apd.candidates_pct", "apd.Candidates")
	pct("apd.window_merge_pct", "apd.MergeColumns")
	pct("apd.filter_compile_pct", "apd.NewFilter")
	pct("apd.split_pct", "apd.SplitSorted")
	pct("probe.sweep_seal_pct", "probe.SweepSeqInto")
	pct("eip.build_pct", "eip.Build")
	pct("eip.generate_pct", "eip.Generate")
	pct("sixgen.generate_pct", "sixgen.Generate")
	pct("entropy.byprefix_pct", "entropy.ByPrefixLen")
	pct("entropy.fingerprint_pct", "entropy.FingerprintSeq")
	pct("cluster.elbow_pct", "cluster.ElbowResults")

	if seal := m["core.seal_pct"]; seal > 0 {
		m["core.seal_residual_pct"] = seal - m["apd.window_merge_pct"] - m["apd.filter_compile_pct"] - m["apd.split_pct"] - m["probe.sweep_seal_pct"]
	}
	if resume := tr.seconds("core.Resume"); resume > 0 {
		m["core.resume_decode_pct"] = max(0, 100*(resume-tr.seconds("core.New.warm"))/total)
	}

	// Rates over the main path's own spans.
	m["core.sweep_sorted_mpps"] = m["sweep_warm_mpps"]
	m["core.sweep_unsorted_mpps"] = m["sweep_unsorted_mpps"]
	m["probe.pairs_mpps"] = m["pairs_mpps"]
	if c.w.Kind == "days" {
		// The probe chain is ProbeDay; on the checkpointing path only
		// RunAPD is public, so there the denominator includes the seal.
		chain := tr.seconds("core.ProbeDay") + tr.seconds("core.RunAPD") - m["checkpoint_write_s"]
		m["apd.probeday_mpps"] = per(float64(c.ck().APDProbes)/1e6, chain)
		m["core.days_per_s"] = per(float64(c.w.Days), tr.seconds("bench.days"))
		m["core.day_p80_over_p50"] = per(m["day_publish_p80_s"], m["day_publish_p50_s"])
	}
	if ckpt := m["checkpoint_write_s"]; ckpt > 0 {
		m["core.checkpoint_pct"] = 100 * ckpt / total
		m["core.checkpoint_bytes"] = m["checkpoint_bytes"]
		m["core.checkpoint_mb_per_s"] = m["checkpoint_bytes"] / 1e6 / ckpt
	}
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// per is a/b, and 0 when nothing was done in no time.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// runtimeMetrics records what the Go runtime spent on the main path.
func (c *child) runtimeMetrics(before []float64) {
	m, after := c.s.Metrics, readRuntime()
	d := func(i int) float64 { return after[i] - before[i] }
	m["runtime.gc_cycles"] = d(0)
	if cpu := d(2); cpu > 0 {
		m["runtime.gc_cpu_pct"] = 100 * d(1) / cpu
	}
	m["runtime.alloc_mib"] = d(3) / (1 << 20)
	m["runtime.mallocs"] = d(4)
}
