package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"expanse/internal/core"
	"expanse/internal/ip6"
	"expanse/internal/probe"
	"expanse/internal/prof"
	"expanse/internal/wire"
)

// checks are the deterministic outputs of one repetition. They are equal
// across repetitions of a seed, and golden.json pins them for two seeds.
type checks struct {
	Hitlist    int    `json:"hitlist"`
	APDProbes  int    `json:"apd_probes"`
	Clean      int    `json:"clean_targets"`
	Responsive int    `json:"sweep_responsive"`
	Digest     string `json:"final_digest,omitempty"`
	ReportSHA  string `json:"report_sha256,omitempty"`
}

// sample is what one repetition (one child process) hands its parent. An
// operation is one published epoch, one sweep day, one report or one
// resume; it fails when its count or digest check does.
type sample struct {
	Metrics   map[string]float64 `json:"metrics"`
	Checks    checks             `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// child runs one repetition of one workload. tr is nil in the untraced
// run. p, lab and epochs outlive the main path only for the traced
// run's kernel replays.
type child struct {
	w    workload
	cfg  core.Config
	seed int64
	tr   *tracer
	s    sample
	runS float64 // sum of the measured phases so far
	work float64 // operations those phases completed: probes sent, or addresses reported on

	p      *core.Pipeline
	lab    *core.Lab
	last   *core.Epoch
	epochs []*core.Epoch
}

func runChild(w workload, seed int64, workers int, traced bool, snapDir string) (sample, *tracer) {
	c := &child{w: w, seed: seed, cfg: w.config(seed, workers, traced, snapDir)}
	c.s.Metrics = map[string]float64{}
	if !traced {
		ref := calibrate(workers)
		c.main()
		ref = (ref + calibrate(workers)) / 2
		toReference(c.s.Metrics, calibNominal/ref)
		c.s.Metrics["calib_wall_s"] = ref
		c.s.Metrics["host_speed"] = calibNominal / ref
		c.s.Metrics["peak_rss_mib"] = mib(prof.PeakRSS())
		return c.s, nil
	}
	c.tr = newTracer()
	run := fmt.Sprintf("%s-%d", w.Name, seed)
	c.tr.runID = run + "-main"
	before := readRuntime()
	c.tr.do("bench.main", c.main)
	c.runtimeMetrics(before)
	c.tr.runID = run + "-replay"
	c.tr.do("bench.replay", c.replays)
	c.layerMetrics()
	// The traced run reports the layer account only; its phase timings
	// (serial, span-laden) are not the end-to-end numbers.
	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layers[d.Name] = c.s.Metrics[d.Name]
	}
	c.s.Metrics = layers
	return c.s, c.tr
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func (c *child) op(ok bool, format string, args ...any) {
	c.s.Attempted++
	if !ok {
		c.s.Failed++
		c.s.Failures = append(c.s.Failures, fmt.Sprintf(format, args...))
	}
}

// phase times fn as one measured phase of the run: it adds to the named
// phase metric and to run_s, and is a span in the traced run. Harness
// work between phases (checks, digests, the shuffle) is in neither.
func (c *child) phase(metric, span string, fn func()) float64 {
	t0 := time.Now()
	c.tr.do(span, fn)
	d := time.Since(t0).Seconds()
	c.s.Metrics[metric] += d
	c.runS += d
	return d
}

// main is the measured path. A panic below it is a failed operation,
// not a lost repetition.
func (c *child) main() {
	defer func() {
		if r := recover(); r != nil {
			c.op(false, "panic: %v", r)
		}
	}()
	m := c.s.Metrics
	t0 := time.Now()
	if c.w.Kind == "reports" {
		c.tr.do("core.NewLab", func() { c.lab = core.NewLab(c.cfg) })
		c.p = c.lab.P
	} else {
		c.tr.do("core.New", func() { c.p = core.New(c.cfg) })
	}
	m["setup_s"] = time.Since(t0).Seconds()

	switch c.w.Kind {
	case "days":
		c.collect()
		c.days()
	case "sweep":
		c.collect()
		c.sweeps()
	case "reports":
		c.reports()
	}
	m["run_s"] = c.runS
	m["throughput_kops"] = per(c.work/1e3, c.runS)
	m["first_output_us_per_addr"] = per(m["first_output_s"]*1e6, float64(c.ck().Hitlist))
}

func (c *child) ck() *checks { return &c.s.Checks }

func (c *child) collect() {
	c.phase("collect_s", "core.Collect", c.p.Collect)
	c.ck().Hitlist = c.p.Hitlist().Len()
}

// verify runs harness checks inside a span of their own, so the traced
// main path stays covered by its children.
func (c *child) verify(fn func()) { c.tr.do("bench.verify", fn) }

func countAny(masks []wire.RespMask) int {
	n := 0
	for _, m := range masks {
		if m.Any() {
			n++
		}
	}
	return n
}

// days drives the APD day loop: through the orchestrator at Overlap 2
// when untraced, serially through the builder (or RunAPD, which is the
// only public path that checkpoints) when traced.
func (c *child) days() {
	w, p, m := c.w, c.p, c.s.Metrics
	start := p.World.Horizon()
	var pub []float64 // seconds from the start of the loop to each publish
	var t0 time.Time
	seen := func(e *core.Epoch) {
		pub = append(pub, time.Since(t0).Seconds())
		c.op(e.Index == len(pub)-1 && e.Day == start+e.Index && (e.Scan != nil) == w.EpochSweep,
			"epoch %d (day %d) published out of order or without its sweep", e.Index, e.Day)
		if e.Scan != nil {
			c.work += float64(wire.NumProtos * len(e.Scan.Masks))
		}
		c.last = e
		if c.tr != nil {
			c.epochs = append(c.epochs, e)
		}
	}
	c.phase("days_s", "bench.days", func() {
		t0 = time.Now()
		if c.tr == nil {
			p.RunDaysFunc(start, w.Days, seen)
			return
		}
		for d := 0; d < w.Days; d++ {
			var ep *core.Epoch
			if w.Resume {
				c.tr.do("core.RunAPD", func() { ep = p.RunAPD(start + d) })
			} else {
				var draft *core.EpochDraft
				c.tr.do("core.ProbeDay", func() { draft = p.Builder().ProbeDay(start + d) })
				c.tr.do("core.Seal", func() { ep = p.Builder().Seal(draft) })
			}
			seen(ep)
		}
	})
	c.op(len(pub) == w.Days, "published %d epochs in %d days", len(pub), w.Days)
	if len(pub) == 0 {
		return
	}
	m["day0_publish_s"] = pub[0]
	m["first_output_s"] = m["collect_s"] + pub[0]
	gaps := make([]float64, 0, len(pub))
	for i := 1; i < len(pub); i++ {
		gaps = append(gaps, pub[i]-pub[i-1])
	}
	if len(gaps) > 0 {
		m["day_publish_p50_s"] = median(gaps)
		m["day_publish_p80_s"] = quantile(gaps, 0.8)
	}

	last := c.last
	c.verify(func() {
		clean, aliased, _ := last.Split()
		c.op(len(clean)+len(aliased) == last.Hitlist.Len(), "clean %d + aliased %d != hitlist %d", len(clean), len(aliased), last.Hitlist.Len())
		ck := c.ck()
		ck.Clean, ck.APDProbes, ck.Digest = len(clean), p.APDProbesSent(), last.Digest()
		c.work += float64(ck.APDProbes)
		if last.Scan != nil {
			ck.Responsive = countAny(last.Scan.Masks)
		}
		m["live_heap_mib"] = mib(prof.LiveHeap())
		runtime.KeepAlive(p)
	})
	if !w.Resume {
		return
	}

	st := p.SnapshotStats()
	c.op(p.SnapshotErr() == nil, "checkpoint write: %v", p.SnapshotErr())
	m["checkpoint_write_s"] = st.Seconds
	m["checkpoint_bytes"] = float64(st.Bytes)
	// Drop the live pipeline first, as a restarted service would have:
	// the repetition's footprint is the larger of the two, not their sum.
	index := last.Index
	c.p, c.last, p, last = nil, nil, nil, nil
	runtime.GC()
	var err error
	c.phase("resume_s", "core.Resume", func() { c.p, c.last, err = core.Resume(c.cfg, c.cfg.SnapshotDir, index) })
	c.verify(func() {
		c.op(err == nil && c.last.Digest() == c.ck().Digest, "resume from epoch %d: err=%v or digest differs from the live run", index, err)
	})
}

// shuffled returns the addresses in a seeded random order — what a
// caller that does not sort (Lab.buildGenStudy's sweep of generated
// addresses) sends the scan plane.
func (c *child) shuffled(sorted []ip6.Addr) []ip6.Addr {
	out := append([]ip6.Addr(nil), sorted...)
	rand.New(rand.NewSource(c.seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (c *child) sweeps() {
	w, p, m := c.w, c.p, c.s.Metrics
	day := p.World.Horizon()
	var cold *core.Scan
	c.phase("sweep_cold_s", "core.SweepSet", func() { cold = p.SweepSet(p.Hitlist(), day) })
	m["first_output_s"] = c.runS
	sorted := cold.Addrs
	c.work = float64(len(sorted) * (wire.NumProtos*(1+w.WarmDays+w.ShuffleDays) + 2*w.PairDays))
	resp := countAny(cold.Masks)
	c.op(len(cold.Masks) == len(sorted) && resp > 0, "cold sweep: %d masks for %d targets, %d responsive", len(cold.Masks), len(sorted), resp)
	shuf := c.shuffled(sorted)

	sweepDays := func(metric, span string, targets []ip6.Addr, days int) {
		d := c.phase(metric+"_s", span, func() {
			p.SweepDays(targets, day+1, days, func(day int, masks []wire.RespMask) {
				n := countAny(masks)
				resp += n
				c.op(len(masks) == len(targets) && n > 0, "sweep day %d: %d masks for %d targets, %d responsive", day, len(masks), len(targets), n)
			})
		})
		m[metric+"_mpps"] = per(float64(wire.NumProtos*len(targets)*days)/1e6, d)
	}
	sweepDays("sweep_warm", "core.SweepDays.sorted", sorted, w.WarmDays)
	sweepDays("sweep_unsorted", "core.SweepDays.unsorted", shuf, w.ShuffleDays)

	var pairs probe.PairColumns
	for d := 0; d < w.PairDays; d++ {
		c.phase("pairs_s", "core.ProbePairColumns", func() { p.ProbePairColumns(sorted, day+d, &pairs) })
		n := pairs.First.OK.Count()
		resp += n
		c.op(n > 0 && n >= pairs.Second.OK.Count()/2, "pair day %d: %d first answers, %d second", day+d, n, pairs.Second.OK.Count())
	}
	m["pairs_mpps"] = per(float64(2*len(sorted)*w.PairDays)/1e6, m["pairs_s"])
	c.verify(func() {
		c.ck().Responsive = resp
		m["live_heap_mib"] = mib(prof.LiveHeap())
		runtime.KeepAlive(p)
	})
}

// labReport is one entry of the report family, in cmd/hitlist's order.
type labReport struct {
	id string
	fn func() *core.Report
}

func labReports(lab *core.Lab) []labReport {
	return []labReport{
		{"table1", lab.Table1}, {"table2", lab.Table2},
		{"fig1a", lab.Fig1a}, {"fig1b", lab.Fig1b}, {"fig1c", lab.Fig1c},
		{"fig2a", lab.Fig2a}, {"fig2b", lab.Fig2b}, {"fig3a", lab.Fig3a}, {"fig3b", lab.Fig3b},
		{"table3", lab.Table3}, {"table4", lab.Table4}, {"sec53", lab.Sec53},
		{"fig4", lab.Fig4}, {"fig5", lab.Fig5}, {"table5", lab.Table5},
		{"table6", lab.Table6}, {"sec55", lab.Sec55},
		{"fig6", lab.Fig6}, {"fig7", lab.Fig7}, {"fig8", lab.Fig8},
		{"sec72", lab.Sec72}, {"sec73", lab.Sec73}, {"table7", lab.Table7}, {"fig9", lab.Fig9},
		{"sec8", lab.Sec8}, {"table8", lab.Table8}, {"fig10", lab.Fig10},
		{"table9", lab.Table9}, {"sec93", lab.Sec93}, {"ablation", lab.AblationGenerators},
	}
}

// firstBlock is how many reports make the reports workload's first
// output: the paper's §3–§4 block, table1 through fig3b. The first
// report alone takes a tenth of a second, too little to time steadily.
const firstBlock = 9

func (c *child) reports() {
	m := c.s.Metrics
	h := sha256.New()
	c.tr.do("bench.reports", func() {
		for i, r := range labReports(c.lab) {
			var text string
			metric := "reports_rest_s"
			if r.id == "sec72" {
				metric = "gen_study_s"
			}
			c.phase(metric, "core.report."+r.id, func() { text = r.fn().String() })
			if i == firstBlock-1 {
				m["first_output_s"] = c.runS
			}
			c.op(strings.HasPrefix(text, "== ") && strings.Count(text, "\n") >= 2, "report %s is empty", r.id)
			h.Write([]byte(text))
		}
	})
	c.verify(func() {
		ck := c.ck()
		ck.ReportSHA = hex.EncodeToString(h.Sum(nil))
		ck.Hitlist = c.p.Hitlist().Len()
		c.work = float64(ck.Hitlist * len(labReports(c.lab)))
		ck.APDProbes = c.p.APDProbesSent()
		c.last = c.p.Latest()
		ck.Digest, ck.Clean = c.last.Digest(), len(c.last.CleanTargets())
		m["live_heap_mib"] = mib(prof.LiveHeap())
		runtime.KeepAlive(c.lab)
	})
}
