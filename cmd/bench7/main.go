// Command bench7 records the scale-memory trajectory of the pipeline
// and emits BENCH_7.json: per (scale, days) cell it runs the full
// collect → multi-day APD pipeline with per-epoch snapshots, and
// reports wall time, peak RSS, the planes' self-measured bytes (store
// shards, APD history), bytes per address, and snapshot save/load
// throughput (load is a timed, digest-verified Resume).
//
// Usage:
//
//	bench7 [-cells 1:14,4:14,16:14] [-workers 8] [-maxheap BYTES]
//	       [-snapdir DIR] [-out BENCH_7.json]
//
// -maxheap makes the run fail (exit 1) if any cell's peak RSS exceeds
// the bound — the CI memory-regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"expanse/internal/core"
	"expanse/internal/prof"
)

type planeBytes struct {
	Bytes        int64   `json:"bytes"`
	BytesPerAddr float64 `json:"bytes_per_addr"`
}

type cell struct {
	Scale   float64 `json:"scale"`
	Days    int     `json:"days"`
	Mode    string  `json:"mode"` // always "compact" (committed BENCH_7.json also holds the retired "baseline" legs)
	Hitlist int     `json:"hitlist_size"`
	APDIDs  int     `json:"apd_id_space"`

	CollectSec float64 `json:"collect_seconds"`
	RunSec     float64 `json:"run_seconds"`
	PeakRSS    int64   `json:"peak_rss_bytes"`
	LiveHeap   int64   `json:"live_heap_bytes"`
	APDProbes  int     `json:"apd_probes_sent"`

	// Store is the sharded hitlist store (columns + membership index),
	// per hitlist address. StoreMapBytes holds the membership index (the
	// key predates it: the committed BENCH_7*.json files used Go maps).
	// History is the APD observation history (day columns + prefix
	// index), per candidate-table ID.
	Store         planeBytes `json:"store_plane"`
	StoreMapBytes int64      `json:"store_map_bytes"`
	History       planeBytes `json:"history_plane"`
	HistDense     int64      `json:"history_dense_bytes"`

	SnapFiles      int     `json:"snapshot_files,omitempty"`
	SnapBytes      int64   `json:"snapshot_bytes,omitempty"`
	SnapSaveSec    float64 `json:"snapshot_save_seconds,omitempty"`
	SnapSaveMBs    float64 `json:"snapshot_save_mb_per_s,omitempty"`
	SnapLoadSec    float64 `json:"snapshot_load_seconds,omitempty"`
	SnapLoadMBs    float64 `json:"snapshot_load_mb_per_s,omitempty"`
	ResumeVerified bool    `json:"resume_digest_verified,omitempty"`
}

type report struct {
	Bench   string        `json:"bench"`
	Workers int           `json:"workers"`
	Host    prof.HostMeta `json:"host"`
	Cells   []cell        `json:"cells"`
	Note    string        `json:"note"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func parseCells(spec string) ([][2]float64, error) {
	var out [][2]float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		sd := strings.Split(part, ":")
		if len(sd) != 2 {
			return nil, fmt.Errorf("bad cell %q (want scale:days)", part)
		}
		scale, err := strconv.ParseFloat(sd[0], 64)
		if err != nil {
			return nil, err
		}
		days, err := strconv.Atoi(sd[1])
		if err != nil {
			return nil, err
		}
		out = append(out, [2]float64{scale, float64(days)})
	}
	return out, nil
}

// runCell executes one pipeline run and measures it.
func runCell(scale float64, days, workers int, snapdir string) cell {
	cfg := core.DefaultConfig()
	cfg.Sim.Scale = scale
	cfg.Workers = workers
	dir := filepath.Join(snapdir, fmt.Sprintf("s%g_d%d", scale, days))
	cfg.SnapshotDir = dir
	p := core.New(cfg)
	c := cell{Scale: scale, Days: days, Mode: "compact"}
	t0 := time.Now()
	p.Collect()
	c.CollectSec = time.Since(t0).Seconds()
	c.Hitlist = p.Hitlist().Len()

	t0 = time.Now()
	// Stream the epochs, keeping only the last: retaining a long run's
	// full epoch slice would hold every day's verdict column and filter
	// live (~hundreds of MB per day at scale 16) and swamp the very
	// memory plane this bench measures.
	var last *core.Epoch
	p.RunDaysFunc(p.World.Horizon(), days, func(e *core.Epoch) { last = e })
	c.RunSec = time.Since(t0).Seconds()
	if err := p.SnapshotErr(); err != nil {
		fail(err)
	}
	c.APDProbes = p.APDProbesSent()
	c.APDIDs = len(last.Merged)

	storeTotal, storeIndex := p.Store.MemBytes()
	histTotal, cols, _ := p.Builder().History().MemBytes()
	c.Store = planeBytes{Bytes: storeTotal, BytesPerAddr: float64(storeTotal) / float64(c.Hitlist)}
	c.StoreMapBytes = storeIndex
	c.History = planeBytes{Bytes: histTotal, BytesPerAddr: float64(histTotal) / float64(c.APDIDs)}
	c.HistDense = cols
	c.LiveHeap = prof.LiveHeap()
	c.PeakRSS = prof.PeakRSS()

	st := p.SnapshotStats()
	c.SnapFiles, c.SnapBytes, c.SnapSaveSec = st.Files, st.Bytes, st.Seconds
	if st.Seconds > 0 {
		c.SnapSaveMBs = float64(st.Bytes) / (1 << 20) / st.Seconds
	}
	// Release the original pipeline (and its simulated world) before
	// Resume builds a second one, so the cell's footprint is the max
	// of the two pipelines, not their sum.
	wantDigest := last.Digest()
	p, last = nil, nil
	runtime.GC()
	t0 = time.Now()
	_, ep, err := core.Resume(cfg, dir, days-1)
	c.SnapLoadSec = time.Since(t0).Seconds()
	if err != nil {
		fail(err)
	}
	if c.SnapLoadSec > 0 {
		c.SnapLoadMBs = float64(st.Bytes) / (1 << 20) / c.SnapLoadSec
	}
	c.ResumeVerified = ep.Digest() == wantDigest
	if !c.ResumeVerified {
		fail(fmt.Errorf("bench7: resumed epoch digest diverged at scale %g", scale))
	}
	return c
}

func main() {
	cellSpec := flag.String("cells", "1:14,4:14,16:14", "comma-separated scale:days cells")
	workers := flag.Int("workers", 0, "scan-engine worker shards per protocol (0 = default)")
	maxheap := flag.Int64("maxheap", 0, "fail if any cell's peak RSS exceeds this many bytes (0 = no bound)")
	snapdir := flag.String("snapdir", "", "snapshot directory (default: a temp dir, removed on exit)")
	out := flag.String("out", "BENCH_7.json", "output path")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()
	if err := profiles.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cells, err := parseCells(*cellSpec)
	if err != nil {
		fail(err)
	}
	dir := *snapdir
	if dir == "" {
		dir, err = os.MkdirTemp("", "bench7-snap-")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
	}

	rep := report{Bench: "scale-memory trajectory: per-address audit, compact columns, epoch snapshots", Host: prof.Host()}
	for _, sd := range cells {
		scale, days := sd[0], int(sd[1])
		c := runCell(scale, days, *workers, dir)
		rep.Workers = p0Workers(*workers)
		rep.Cells = append(rep.Cells, c)
		fmt.Printf("scale %4g days %2d %-8s  wall %7.2fs  peakRSS %s  store %s (%.1f B/addr)  hist %s  snap %s save %.1f MB/s load %.1f MB/s\n",
			scale, days, c.Mode, c.CollectSec+c.RunSec, prof.FmtBytes(c.PeakRSS),
			prof.FmtBytes(c.Store.Bytes), c.Store.BytesPerAddr, prof.FmtBytes(c.History.Bytes),
			prof.FmtBytes(c.SnapBytes), c.SnapSaveMBs, c.SnapLoadMBs)
		if *maxheap > 0 && c.PeakRSS > *maxheap {
			fail(fmt.Errorf("bench7: peak RSS %d exceeds -maxheap %d at scale %g", c.PeakRSS, *maxheap, scale))
		}
	}
	rep.Note = "Cells clip the store's column slack post-collection (its open-addressed membership index stays resident) " +
		"and record one dense column per day, with per-epoch snapshots whose load throughput is a timed, " +
		"digest-verified Resume. Peak RSS is cumulative across cells in one process (VmHWM never decreases): " +
		"per-cell ordering runs small scales first, so a cell's reading bounds that cell from above."

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fail(err)
	}
	f.Close()
	fmt.Println("wrote", *out)
}

// p0Workers resolves the effective worker count the way core.New does.
func p0Workers(w int) int {
	if w <= 0 {
		return core.DefaultConfig().Workers
	}
	return w
}
