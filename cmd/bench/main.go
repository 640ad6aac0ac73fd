// Command bench is the one benchmark of the hitlist pipeline: four named
// workloads, end-to-end metrics from untraced runs, a per-layer account
// from a traced run, every output checked against pinned digests.
// BENCHMARK.json at the repository root declares the same workloads and
// metrics; README.md in this directory says how to read them.
//
// Usage (from the repository root):
//
//	go run ./cmd/bench [--workload daily|apd-long|sweep|reports|all] [--seed N]
//	                   [--seconds 32] [--trace 0|1] [-out FILE] [-against FILE]
//	                   [-update-golden]
//
// Each repetition of a workload is a fresh child process (peak RSS is
// cumulative per process, and a daily service starts cold); repetitions
// run back to back until --seconds is used up, at least three of them,
// and every metric is the median over repetitions. Untraced timings are
// in reference seconds: each repetition rescales its wall times by a
// fixed kernel it times before and after its measured path (calib.go),
// which cancels the shared host's drift. The last line of
// standard output is one JSON object: correct, attempted, failed, and
// the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"expanse/internal/prof"
	"expanse/internal/stats"
)

// outDir receives traces, results and checkpoint scratch; the root
// .gitignore names it.
const outDir = "cmd/bench/out"

// hostBlock is written with every result. A single CPU cannot show the
// orchestrator's overlap or the scan engine's sharding, so its numbers
// are marked unfit to commit (ROADMAP: no number from a 1-CPU host).
type hostBlock struct {
	prof.HostMeta
	Workers int     `json:"workers"`
	Load1   float64 `json:"loadavg_1min"`
	Unfit   bool    `json:"unfit,omitempty"`
}

// benchWorkers is GOMAXPROCS and Config.Workers of every child.
func benchWorkers() int { return min(runtime.NumCPU(), 4) }

func host() hostBlock {
	h := hostBlock{HostMeta: prof.Host(), Workers: benchWorkers(), Unfit: runtime.NumCPU() < 2}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// result is one workload's run: what -out writes and -against reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Reps      int                `json:"repetitions"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Checks    checks             `json:"checks"`
	Metrics   map[string]summary `json:"metrics"`
}

type resultFile struct {
	Host    hostBlock `json:"host"`
	Results []result  `json:"results"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", defaultSeed, "world seed; the shuffle of the sweep workload derives from it too")
	seconds := flag.Float64("seconds", 32, "measure each workload for this long (at least three repetitions)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "write the results here")
	against := flag.String("against", "", "compare with this earlier results file; exit 1 on a regression")
	update := flag.Bool("update-golden", false, "rewrite golden.json for this seed from this run")
	childOf := flag.String("child", "", "internal: run one repetition of this workload and print its sample")
	flag.Parse()

	if *childOf != "" {
		runChildProcess(*childOf, *seed, *trace == 1)
		return
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}

	file := resultFile{Host: host()}
	fmt.Printf("host: %+v\n", file.Host)
	if file.Host.Unfit {
		fmt.Println("host: UNFIT — one CPU; do not commit these numbers")
	}
	golden := loadGolden()
	ok := true
	for _, w := range selected {
		r, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fail(err)
		}
		if *update {
			golden.set(w.Name, *seed, r.Checks)
		} else if want, pinned := golden.get(w.Name, *seed); pinned && want != r.Checks {
			r.Correct = false
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("golden mismatch: got %+v, pinned %+v", r.Checks, want))
		}
		printResult(r)
		ok = ok && r.Correct
		file.Results = append(file.Results, r)
	}
	if *update {
		if err := golden.save(); err != nil {
			fail(err)
		}
	}
	if err := writeJSON(*out, file); err != nil {
		fail(err)
	}
	if *against != "" {
		var old resultFile
		b, err := os.ReadFile(*against)
		if err == nil {
			err = json.Unmarshal(b, &old)
		}
		if err != nil {
			fail(fmt.Errorf("-against: %w", err))
		}
		rows := compare(old, file)
		printComparison(os.Stdout, rows)
		for _, row := range rows {
			ok = ok && (row.Verdict != "regressed" || !row.Gated)
		}
	}
	for _, r := range file.Results {
		fmt.Println(contractLine(r))
	}
	if !ok {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChildProcess is the body of one repetition's process.
func runChildProcess(name string, seed int64, traced bool) {
	w, ok := workloadByName(name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", name))
	}
	runtime.GOMAXPROCS(benchWorkers())
	snapDir := filepath.Join(outDir, fmt.Sprintf("snap-%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(snapDir)
	s, tr := runChild(w, seed, benchWorkers(), traced, snapDir)
	if tr != nil {
		trace := struct {
			Workload string      `json:"workload"`
			Seed     int64       `json:"seed"`
			Host     hostBlock   `json:"host"`
			ByName   []nameTotal `json:"by_name"`
			Spans    []span      `json:"spans"`
		}{w.Name, seed, host(), tr.byName(), tr.spans}
		if err := writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), trace); err != nil {
			fail(err)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// spawn runs one repetition in a fresh process and waits for it.
func spawn(w workload, seed int64, traced bool) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", w.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("repetition of %s: %w", w.Name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var s sample
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return sample{}, fmt.Errorf("repetition of %s printed no sample: %w", w.Name, err)
	}
	return s, nil
}

// runWorkload repeats the workload in fresh processes for the given
// time and summarizes every metric over the repetitions.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (result, error) {
	minReps := 3
	if traced {
		minReps = 1 // the layer account is read, not gated
	}
	var samples []sample
	var walls []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start).Seconds()+median(walls) <= seconds {
		t0 := time.Now()
		s, err := spawn(w, seed, traced)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		samples = append(samples, s)
	}
	return aggregate(w.Name, seed, traced, samples), nil
}

// aggregate folds repetitions into one result. Repetitions of one seed
// must agree on every deterministic output, byte for byte.
func aggregate(name string, seed int64, traced bool, samples []sample) result {
	r := result{Workload: name, Seed: seed, Trace: traced, Reps: len(samples), Checks: samples[0].Checks, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	for i, s := range samples {
		r.Attempted += s.Attempted
		r.Failed += s.Failed
		r.Failures = append(r.Failures, s.Failures...)
		if s.Checks != r.Checks {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("repetition %d is not byte-identical: %+v vs %+v", i, s.Checks, r.Checks))
		}
		for k, v := range s.Metrics {
			values[k] = append(values[k], v)
		}
	}
	for k, vs := range values {
		r.Metrics[k] = summarize(unitOf(k, traced), vs)
	}
	for _, d := range declared(traced) {
		if s, ok := r.Metrics[d.Name]; !ok || len(s.Values) != len(samples) {
			r.Failed++
			r.Failures = append(r.Failures, "metric "+d.Name+" was not measured in every repetition")
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// unitOf is a declared metric's unit, or that of an undeclared,
// workload-specific phase metric.
func unitOf(name string, traced bool) string {
	for _, d := range declared(traced) {
		if d.Name == name {
			return d.Unit
		}
	}
	switch {
	case name == "host_speed":
		return "ratio"
	case strings.HasSuffix(name, "_mpps"):
		return "Mprobes/s"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	}
	return "s"
}

func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name with its unit: the declared
// ones in declaration order, then the workload's own phases.
func printResult(r result) {
	fmt.Printf("\n== %s  seed %d  trace %v  %d repetitions  %d operations, %d failed ==\n", r.Workload, r.Seed, r.Trace, r.Reps, r.Attempted, r.Failed)
	fmt.Printf("checks: %+v\n", r.Checks)
	line := func(name string, s summary) {
		fmt.Printf("  %-34s %14.4f %-10s [min %.4f  max %.4f  iqr %.1f%%  n=%d]\n", name, s.Median, s.Unit, s.Min, s.Max, 100*s.spread(), len(s.Values))
	}
	isDeclared := map[string]bool{}
	for _, d := range declared(r.Trace) {
		isDeclared[d.Name] = true
		line(d.Name, r.Metrics[d.Name])
	}
	for _, k := range stats.SortedKeys(r.Metrics) {
		if !isDeclared[k] {
			line("phase "+k, r.Metrics[k])
		}
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// contractLine is the one JSON object the PR gate reads.
func contractLine(r result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range declared(r.Trace) {
		line.Metrics[d.Name] = value{r.Metrics[d.Name].Median, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	return string(b)
}
