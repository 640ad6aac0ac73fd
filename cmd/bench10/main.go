// Command bench10 records the columnar world plane's footprint and
// sweep throughput and emits BENCH_10.json: per scale it builds the
// simulated world, reports the plane's self-measured bytes (sorted host
// columns, flat topology columns, record inputs), bytes per host, build
// wall time, and the wall clock of a full sweep over every finite host —
// batched (the sorted merge-cursor path) and a per-probe sample (the
// binary-search path).
//
// Usage:
//
//	bench10 [-scales 16,64,100] [-sample 200000] [-maxheap BYTES]
//	        [-out BENCH_10.json]
//
// -maxheap makes the run fail (exit 1) if any cell's peak RSS exceeds
// the bound — the CI memory-regression gate for world construction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/prof"
	"expanse/internal/wire"
)

type cell struct {
	Scale  float64 `json:"scale"`
	Hosts  int     `json:"hosts"`
	Nets   int     `json:"networks"`
	Aliens int     `json:"alias_regions"`

	BuildSec float64 `json:"build_seconds"`

	// World-plane self-accounting (netsim.Internet.MemBytes).
	HostBytes    int64   `json:"host_plane_bytes"`
	TopoBytes    int64   `json:"topo_plane_bytes"`
	RecordBytes  int64   `json:"record_plane_bytes"`
	BytesPerHost float64 `json:"host_plane_bytes_per_host"`

	// Sweep over finite hosts in sorted order, mask-only columns: the
	// resolution plane (merge cursor + columns). The world keeps nothing
	// per probe, so one pass is the measurement; -sweepcap only bounds its
	// wall time at large scales (and, at 1, leaves it out of a
	// construction-only run).
	SweepProbes  int     `json:"sweep_probes"`
	SweepOK      int     `json:"sweep_responsive"`
	SweepSec     float64 `json:"sweep_seconds"`
	SweepMProbes float64 `json:"sweep_mprobes_per_sec"`

	// Per-probe (binary search) reference over a deterministic sample.
	SampleProbes    int     `json:"sample_probes"`
	SampleSec       float64 `json:"sample_seconds"`
	SampleMProbesPS float64 `json:"sample_mprobes_per_sec"`

	PeakRSS  int64 `json:"peak_rss_bytes"`
	LiveHeap int64 `json:"live_heap_bytes"`
}

type report struct {
	Bench string        `json:"bench"`
	Host  prof.HostMeta `json:"host"`
	Cells []cell        `json:"cells"`
	Note  string        `json:"note"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func parseScales(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

const sweepChunk = 8192

// runCell builds one world and measures plane bytes and sweep rates.
func runCell(scale float64, sample, sweepcap int) cell {
	cfg := netsim.DefaultConfig()
	cfg.Scale = scale
	t0 := time.Now()
	world := netsim.New(cfg)
	c := cell{Scale: scale, BuildSec: time.Since(t0).Seconds()}

	m := world.MemBytes()
	c.Hosts = m.NHosts
	c.HostBytes, c.TopoBytes, c.RecordBytes = m.Hosts, m.Topo, m.Records
	c.BytesPerHost = m.BytesPerHost()
	c.Nets = len(world.Networks())
	c.Aliens = len(world.AliasedRegions())

	// Batched sweep: finite hosts in sorted address order (the shape a
	// sorted hitlist scan presents to the responder), capped at sweepcap.
	addrs := make([]ip6.Addr, 0, m.NHosts)
	for _, h := range world.Hosts() {
		addrs = append(addrs, h.Addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	if sweepcap > 0 && len(addrs) > sweepcap {
		fmt.Printf("scale %4g: sweep capped at %d of %d hosts\n", scale, sweepcap, len(addrs))
		addrs = addrs[:sweepcap]
	}
	at := make([]wire.Time, sweepChunk)
	for i := range at {
		at[i] = wire.Time(i) * 3
	}
	var cols wire.ResultColumns
	cols.ResetOK(sweepChunk)
	c.SweepProbes = len(addrs)
	t0 = time.Now()
	for lo := 0; lo < len(addrs); lo += sweepChunk {
		hi := min(lo+sweepChunk, len(addrs))
		cols.OK.Reset(hi - lo)
		world.ProbeBatch(addrs[lo:hi], wire.ICMPv6, 3, at[:hi-lo], &cols, 0)
		c.SweepOK += cols.OK.Count()
	}
	c.SweepSec = time.Since(t0).Seconds()
	if c.SweepSec > 0 {
		c.SweepMProbes = float64(c.SweepProbes) / 1e6 / c.SweepSec
	}

	// Per-probe sample: a deterministic stride over the same addresses,
	// resolved through the binary-search path.
	if sample > len(addrs) {
		sample = len(addrs)
	}
	stride := 1
	if sample > 0 {
		stride = len(addrs) / sample
		if stride < 1 {
			stride = 1
		}
	}
	t0 = time.Now()
	for i := 0; i < len(addrs) && c.SampleProbes < sample; i += stride {
		world.Probe(addrs[i], wire.ICMPv6, 3, wire.Time(i))
		c.SampleProbes++
	}
	c.SampleSec = time.Since(t0).Seconds()
	if c.SampleSec > 0 {
		c.SampleMProbesPS = float64(c.SampleProbes) / 1e6 / c.SampleSec
	}

	c.LiveHeap = prof.LiveHeap()
	c.PeakRSS = prof.PeakRSS()
	runtime.KeepAlive(world)
	return c
}

func main() {
	scaleSpec := flag.String("scales", "16,64,100", "comma-separated world scales")
	sample := flag.Int("sample", 200_000, "per-probe reference sample size")
	sweepcap := flag.Int("sweepcap", 4_000_000, "max sweep probes per cell (0 = full population)")
	maxheap := flag.Int64("maxheap", 0, "fail if any cell's peak RSS exceeds this many bytes (0 = no bound)")
	out := flag.String("out", "BENCH_10.json", "output path")
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

	scales, err := parseScales(*scaleSpec)
	if err != nil {
		fail(err)
	}
	rep := report{Bench: "columnar world plane: footprint and sweep throughput by scale", Host: prof.Host()}
	for _, scale := range scales {
		c := runCell(scale, *sample, *sweepcap)
		rep.Cells = append(rep.Cells, c)
		fmt.Printf("scale %4g  hosts %9d  build %6.2fs  host plane %s (%.1f B/host)  topo %s  records %s  sweep %6.2fs (%.1f Mp/s)  peakRSS %s\n",
			scale, c.Hosts, c.BuildSec, prof.FmtBytes(c.HostBytes), c.BytesPerHost,
			prof.FmtBytes(c.TopoBytes), prof.FmtBytes(c.RecordBytes),
			c.SweepSec, c.SweepMProbes, prof.FmtBytes(c.PeakRSS))
		if *maxheap > 0 && c.PeakRSS > *maxheap {
			fail(fmt.Errorf("bench10: peak RSS %d exceeds -maxheap %d at scale %g", c.PeakRSS, *maxheap, scale))
		}
	}
	rep.Note = "Host plane is the sealed SoA columns (48 B/host flat: 16 addr + 4 asn + 1 meta + " +
		"1 serves + 8 machine + 8 profile + 2 death + 4 domain + 4 rank). The retired map/AoS plane " +
		"measured 92.3 B/host at scale 16 and 99.0 B/host at scale 4 (live-heap deltas, pre-refactor). " +
		"Sweep is ProbeBatch over finite hosts in sorted order (merge-cursor resolution), capped " +
		"per -sweepcap; one pass, since machine profiles are a sealed column and probing leaves " +
		"nothing behind (records before PR 17 carry a cold pass that derived and memoized every " +
		"profile, and a warm one). Sample is the per-probe " +
		"Probe path (binary search) over a deterministic stride. Peak RSS is cumulative across " +
		"cells in one process (VmHWM never decreases): run scales ascending, so a cell's reading " +
		"bounds that cell from above."

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
