// Package prof is the shared profiling and host-metadata helper of the
// command-line tools: one place to hang -cpuprofile/-memprofile flags,
// read peak RSS, and stamp benchmark JSON with the host facts needed to
// interpret it (CPU count, GOMAXPROCS, GOMEMLIMIT, Go version) — so no
// emitted measurement needs a "what machine was this?" caveat.
package prof

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Profiles carries the -cpuprofile/-memprofile flag values and the
// running CPU profile's file handle between Start and Stop.
type Profiles struct {
	cpuPath string
	memPath string
	cpuFile *os.File
}

// Flags registers -cpuprofile and -memprofile on the flag set (the
// standard `go test` spelling) and returns the holder to Start/Stop
// around the measured work.
func Flags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to `file` on exit")
	return p
}

// Start begins the CPU profile if one was requested. Call after flag
// parsing, before the measured work.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop ends the CPU profile and writes the heap profile, if requested.
// The heap profile is taken after a forced GC so it reflects live
// bytes, not garbage awaiting collection.
func (p *Profiles) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if p.memPath == "" {
		return nil
	}
	f, err := os.Create(p.memPath)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

// HostMeta is the host fingerprint embedded in benchmark JSON.
type HostMeta struct {
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GOMEMLIMIT is the soft memory limit in bytes, or 0 when unset.
	GOMEMLIMIT int64 `json:"gomemlimit,omitempty"`
}

// Host returns the current process's host fingerprint.
func Host() HostMeta {
	limit := debug.SetMemoryLimit(-1)
	if limit == int64(^uint64(0)>>1) { // math.MaxInt64: no limit set
		limit = 0
	}
	return HostMeta{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOMEMLIMIT: limit,
	}
}

// PeakRSS returns the process's peak resident set size in bytes (Linux
// VmHWM), or 0 where /proc is unavailable.
func PeakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// LiveHeap forces a GC and returns the live heap bytes — the number
// memory audits compare against the planes' self-reported MemBytes.
func LiveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// FmtBytes renders a byte count human-readably (KiB/MiB/GiB) for log
// lines; JSON always carries raw byte counts.
func FmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
