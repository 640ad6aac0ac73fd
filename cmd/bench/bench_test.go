package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		vs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5}, 0.8, 5},
		{[]float64{10, 20, 30, 40, 50}, 0.8, 42},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
	}
	for _, c := range cases {
		if got := quantile(c.vs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.vs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	vs := []float64{3, 1, 2}
	median(vs)
	if !reflect.DeepEqual(vs, []float64{3, 1, 2}) {
		t.Error("quantile reordered its input")
	}
}

func TestToReference(t *testing.T) {
	m := map[string]float64{
		"setup_s": 2, "collect_s": 4, "first_output_us_per_addr": 10,
		"throughput_kops": 100, "sweep_warm_mpps": 20,
		"peak_rss_mib": 300, "live_heap_mib": 80, "checkpoint_bytes": 1e6,
	}
	// A host running at half the nominal speed: its wall times are twice
	// the reference times, its rates half the reference rates.
	toReference(m, 0.5)
	want := map[string]float64{
		"setup_s": 1, "collect_s": 2, "first_output_us_per_addr": 5,
		"throughput_kops": 200, "sweep_warm_mpps": 40,
		"peak_rss_mib": 300, "live_heap_mib": 80, "checkpoint_bytes": 1e6,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("toReference(0.5) = %v, want %v", m, want)
	}
	if a, b := calibrate(1), calibrate(1); !(a > 0 && b > 0) {
		t.Errorf("calibrate returned %g, %g", a, b)
	}
}

// fakeTracer ticks one nanosecond per clock read, so every span has a
// known, non-zero duration.
func fakeTracer() *tracer {
	var now int64
	return &tracer{now: func() int64 { now++; return now }}
}

func TestSpanSelfTimesSumToRoot(t *testing.T) {
	tr := fakeTracer()
	tr.do("root", func() {
		tr.do("a", func() {
			tr.do("a1", func() {})
			tr.do("a2", func() { tr.do("a2x", func() {}) })
		})
		tr.do("b", func() {})
		tr.do("a", func() {})
	})
	tr.do("sibling-root", func() { tr.do("c", func() {}) })

	self := tr.selfNS()
	var sum int64
	for i, s := range tr.spans {
		if self[i] < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, self[i])
		}
		if i == 0 || inTree(tr.spans, i, 0) {
			sum += self[i]
		}
	}
	if root := tr.spans[0].dur(); sum != root {
		t.Errorf("self times under the root sum to %d, the root lasted %d", sum, root)
	}
	if tr.spans[len(tr.spans)-1].Parent != len(tr.spans)-2 || tr.spans[len(tr.spans)-2].Parent != -1 {
		t.Error("a span opened after the root closed must start a tree of its own")
	}
	var selfTotal int64
	for _, n := range tr.byName() {
		selfTotal += n.SelfNS
		if n.Name == "a" && n.Count != 2 {
			t.Errorf("by-name roll-up counts %d spans named a, want 2", n.Count)
		}
	}
	if selfTotal != tr.spans[0].dur()+tr.spans[len(tr.spans)-2].dur() {
		t.Errorf("roll-up self total %d does not equal the two roots", selfTotal)
	}
	if got := tr.childCoverage("root"); got <= 0 || got >= 1 {
		t.Errorf("childCoverage(root) = %g, want a share strictly between 0 and 1", got)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the function")
	}
}

func inTree(spans []span, i, root int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

func TestVerdict(t *testing.T) {
	// The quartiles sit a quarter of the way in from the extremes.
	sum := func(med, min, max float64) summary {
		return summary{Median: med, Min: min, Max: max, Q1: (3*min + med) / 4, Q3: (3*max + med) / 4}
	}
	cases := []struct {
		name     string
		old, cur summary
		better   string
		bound    float64
		want     string
	}{
		{"same", sum(10, 9.9, 10.1), sum(10.2, 10.1, 10.3), "lower", 0.1, "ok"},
		{"slower past the bound", sum(10, 9.9, 10.1), sum(11.5, 11.4, 11.6), "lower", 0.1, "regressed"},
		{"faster", sum(10, 9.9, 10.1), sum(7, 6.9, 7.1), "lower", 0.1, "ok"},
		{"noisy and overlapping", sum(10, 8, 12), sum(10.3, 9, 13), "lower", 0.1, "unresolved"},
		{"noisy median past the bound but overlapping", sum(10, 8, 12), sum(11.5, 10, 13), "lower", 0.1, "unresolved"},
		{"noisy but every run better", sum(10, 9, 12), sum(6, 5, 7), "lower", 0.1, "ok"},
		{"noisy and every run worse", sum(10, 9, 11), sum(14, 12, 16), "lower", 0.1, "regressed"},
		{"throughput fell", sum(20, 19.8, 20.2), sum(17, 16.9, 17.1), "higher", 0.1, "regressed"},
		{"throughput rose", sum(20, 19.8, 20.2), sum(23, 22.9, 23.1), "higher", 0.1, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.old, c.cur, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	old := resultFile{Results: []result{{Workload: "daily", Metrics: map[string]summary{
		"setup_s": sum(10, 9.9, 10.1), "collect_s": sum(1, 0.99, 1.01), "gone_s": sum(1, 1, 1)}}}}
	cur := resultFile{Results: []result{
		{Workload: "daily", Metrics: map[string]summary{"setup_s": sum(14, 13.9, 14.1), "collect_s": sum(2, 1.99, 2.01)}},
		{Workload: "daily", Trace: true, Metrics: map[string]summary{"setup_s": sum(1, 1, 1)}},
		{Workload: "sweep", Metrics: map[string]summary{"setup_s": sum(1, 1, 1)}},
	}}
	rows := compare(old, cur)
	if len(rows) != 2 {
		t.Fatalf("compare produced %d rows, want the 2 metrics both untraced daily runs measured: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.Verdict != "regressed" || r.Gated != (r.Metric == "setup_s") {
			t.Errorf("row %+v: want regressed, gated only for the declared setup_s", r)
		}
	}
}

// benchmarkJSON is the shape of BENCHMARK.json the PR gate fixes.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./cmd/bench"}) || !reflect.DeepEqual(bj.Paths, []string{"cmd/bench"}) {
		t.Errorf("command %v / paths %v do not name this directory", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, bj.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload name %q or its why is outside the contract", w.Name)
		}
		seen[w.Name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound == nil || *j.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
	for i, d := range perLayer {
		if j := bj.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
	}
}

// Tiny literals of each workload kind: enough to drive every code path
// of both runs in a few seconds. The committed sizes are in workloads.go.
var tiny = []workload{
	{Name: "tiny-daily", Kind: "days", Scale: 0.02, ASes: 100, Days: 4, EpochSweep: true},
	{Name: "tiny-apd-long", Kind: "days", Scale: 0.02, ASes: 100, Days: 5, Resume: true},
	{Name: "tiny-sweep", Kind: "sweep", Scale: 0.02, ASes: 100, WarmDays: 2, ShuffleDays: 1, PairDays: 1},
	{Name: "tiny-reports", Kind: "reports", Scale: 0.01, ASes: 60},
}

func TestTinyWorkloads(t *testing.T) {
	parents := map[string]string{"days": "bench.days", "sweep": "", "reports": "bench.reports"}
	for _, w := range tiny {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			plain, _ := runChild(w, 7, 2, false, t.TempDir())
			traced, tr := runChild(w, 7, 2, true, t.TempDir())
			for _, s := range []sample{plain, traced} {
				if s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", s.Failed, s.Attempted, s.Failures)
				}
			}
			// Overlap 2 through the orchestrator and the serial traced
			// drive must publish the same bytes.
			if plain.Checks != traced.Checks {
				t.Errorf("traced and untraced runs disagree:\n%+v\n%+v", plain.Checks, traced.Checks)
			}

			for _, d := range endToEnd {
				if v, ok := plain.Metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("untraced run: end-to-end metric %s = %v, want measured and non-zero", d.Name, v)
				}
			}
			for name := range plain.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("emitted metric name %q is outside [A-Za-z0-9_.-]", name)
				}
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json declares %d per-layer", len(traced.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				v, ok := traced.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("traced run: per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			for _, always := range []string{"trace.total_s", "netsim.new_s", "dnssim.new_s"} {
				if traced.Metrics[always] <= 0 {
					t.Errorf("%s must be measured on every workload", always)
				}
			}

			// Children must account for their parent's wall.
			for _, parent := range []string{"bench.main", "replay.collect", parents[w.Kind]} {
				if parent == "" {
					continue
				}
				if cov := tr.childCoverage(parent); cov < 0.95 {
					t.Errorf("children of %s cover %.1f%% of it, want >= 95%%", parent, 100*cov)
				}
			}
			if w.Kind == "sweep" && traced.Metrics["core.sweep_unsorted_mpps"] >= traced.Metrics["core.sweep_sorted_mpps"] {
				t.Logf("unsorted sweep (%.2f Mp/s) not slower than sorted (%.2f) at this tiny size", traced.Metrics["core.sweep_unsorted_mpps"], traced.Metrics["core.sweep_sorted_mpps"])
			}
		})
	}
}

func TestAggregate(t *testing.T) {
	mk := func(run float64, ck checks) sample {
		m := map[string]float64{"collect_s": 1}
		for _, d := range endToEnd {
			m[d.Name] = run
		}
		return sample{Metrics: m, Checks: ck, Attempted: 5}
	}
	same := checks{Hitlist: 10, Digest: "d"}
	r := aggregate("daily", 1, false, []sample{mk(3, same), mk(1, same), mk(2, same)})
	if !r.Correct || r.Attempted != 15 || r.Metrics["setup_s"].Median != 2 || r.Metrics["setup_s"].Min != 1 || r.Metrics["setup_s"].Max != 3 {
		t.Errorf("aggregate of three agreeing repetitions: %+v", r)
	}
	if r.Metrics["collect_s"].Unit != "s" || r.Metrics["throughput_kops"].Unit != "kops/s" {
		t.Errorf("units: collect_s %q, throughput_kops %q", r.Metrics["collect_s"].Unit, r.Metrics["throughput_kops"].Unit)
	}
	r = aggregate("daily", 1, false, []sample{mk(1, same), mk(1, checks{Hitlist: 11, Digest: "d"})})
	if r.Correct || r.Failed != 1 {
		t.Errorf("repetitions that differ must fail the run: %+v", r)
	}
	short := mk(1, same)
	delete(short.Metrics, "setup_s")
	if r = aggregate("daily", 1, false, []sample{mk(1, same), short}); r.Correct {
		t.Error("a declared metric missing from a repetition must fail the run")
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	r = aggregate("daily", 1, false, []sample{mk(3, same), mk(1, same), mk(2, same)})
	if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 15 || len(line.Metrics) != len(endToEnd) || line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("contract line: %+v", line)
	}
}
