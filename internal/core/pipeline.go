// Package core is the public face of the library: the daily IPv6 hitlist
// pipeline of §6 (collect → preprocess → aliased-prefix detection →
// traceroute → probe → curate) and the Lab, which reproduces every table
// and figure of the paper on top of the pipeline.
//
// The pipeline mirrors the paper's architecture:
//
//  1. collect addresses from the seven sources (internal/sources),
//  2. preprocess, merge and deduplicate them (the accumulating store),
//  3. detect aliased prefixes with multi-level APD and a 3-day sliding
//     window (internal/apd),
//  4. traceroute all known addresses (the scamper source),
//  5. probe responsiveness with the ZMapv6-style scanner on ICMPv6,
//     TCP/80, TCP/443, UDP/53 and UDP/443 (internal/probe).
package core

import (
	"math/bits"
	"sync/atomic"

	"expanse/internal/apd"
	"expanse/internal/dnssim"
	"expanse/internal/ip6"
	"expanse/internal/netsim"
	"expanse/internal/par"
	"expanse/internal/probe"
	"expanse/internal/sources"
	"expanse/internal/wire"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Sim configures the simulated Internet (the measurement target).
	Sim netsim.Config
	// APDWindow is the sliding-window length in days — the TOTAL number
	// of days merged per §5.2 evaluation, so the paper's 3-day window
	// merges exactly 3 days (default 3).
	APDWindow int
	// MinTargets is the APD candidate threshold (§5.1; default 100).
	MinTargets int
	// Workers is the per-protocol worker-shard count of the scan engine,
	// used by both the responsiveness scanner and the APD detector
	// (default 8). Scan results are identical for every value — see the
	// concurrency model in DESIGN.md — so this is purely a throughput
	// knob.
	Workers int
	// Overlap is the day orchestrator's pipeline depth: how many APD
	// days may be in flight at once in RunDaysFunc. 1 is the fully serial
	// day loop, which is also what New turns an unset (zero or negative)
	// value into; DefaultConfig sets 2. Published epochs are
	// byte-identical for every value — like Workers, purely a throughput
	// knob.
	Overlap int
	// EpochSweep, when set, gives every published epoch its own
	// five-protocol responsiveness sweep over the epoch's curated
	// targets (Epoch.Scan) — the daily service's published measurement,
	// and the heavy per-day stage the orchestrator overlaps with the
	// next day's probing. Off by default: the Lab's experiments schedule
	// their own sweeps.
	EpochSweep bool
	// SnapshotDir, when non-empty, makes the day loop checkpoint every
	// probed day into that directory in the internal/snap format; Resume
	// restarts a run from any checkpointed epoch byte-identically (see
	// checkpoint.go). Empty by default: no persistence.
	SnapshotDir string
}

// GroupMin adapts the paper's ≥100-address group threshold (entropy
// clustering groups, §7's per-AS seed sets) to the simulation scale so
// the experiments keep enough groups.
func (c Config) GroupMin() int { return max(20, int(100*c.Sim.Scale)) }

// DefaultConfig returns the paper-faithful configuration at default
// simulation scale.
func DefaultConfig() Config {
	return Config{Sim: netsim.DefaultConfig(), APDWindow: 3, MinTargets: 100, Workers: 8, Overlap: 2}
}

// TestConfig returns a small fast configuration for tests and examples.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Sim.Scale = 0.08
	cfg.Sim.Registry.ASes = 250
	return cfg
}

// Pipeline is the assembled system. All mutable day-loop state lives in
// the EpochBuilder; readers consume immutable Epoch snapshots through
// Latest (an RCU-style atomic pointer swapped at each day's publish
// point), so concurrent queries cost a pointer load, never a lock.
type Pipeline struct {
	Cfg   Config
	World *netsim.Internet
	DNS   *dnssim.Server
	Store *sources.Store

	scanner  *probe.Scanner
	detector *apd.Detector
	builder  *EpochBuilder
	latest   atomic.Pointer[Epoch]
	// snapErr latches the first checkpoint-write error; snapStats tallies
	// checkpoint writes (both probe-chain goroutine only; read via
	// SnapshotErr / SnapshotStats).
	snapErr   error
	snapStats SnapStats
}

// New builds the world, the DNS view, and the collectors.
func New(cfg Config) *Pipeline {
	if cfg.APDWindow <= 0 {
		cfg.APDWindow = 3
	}
	if cfg.MinTargets <= 0 {
		cfg.MinTargets = 100
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Overlap <= 0 {
		cfg.Overlap = 1
	}
	world := netsim.New(cfg.Sim)
	// The world applies the simulation defaults; everything after it —
	// the sources, Collect, GroupMin, the snapshot pin — reads them too.
	cfg.Sim = world.Config()
	dns := dnssim.New(world)
	// The seven sources read the world and the DNS view and nothing of
	// each other, so they build concurrently, each into its slot.
	build := [...]func() sources.Source{
		func() sources.Source { return sources.NewDL(dns, cfg.Sim) },
		func() sources.Source { return sources.NewFDNS(dns, cfg.Sim) },
		func() sources.Source { return sources.NewCT(dns, cfg.Sim) },
		func() sources.Source { return sources.NewAXFR(dns, cfg.Sim) },
		func() sources.Source { return sources.NewBitnodes(world) },
		func() sources.Source { return sources.NewAtlas(world) },
		func() sources.Source { return sources.NewScamper(world) },
	}
	srcs := make([]sources.Source, len(build))
	par.Queue(len(build), cfg.Workers, func(_, i, _ int) { srcs[i] = build[i]() })
	st := sources.NewStoreWorkers(cfg.Workers, srcs...)
	p := &Pipeline{
		Cfg:      cfg,
		World:    world,
		DNS:      dns,
		Store:    st,
		scanner:  probe.New(world, probe.WithWorkers(cfg.Workers), probe.WithSeed(uint64(cfg.Sim.Seed))),
		detector: apd.NewDetectorWorkers(world, cfg.Workers),
	}
	p.builder = &EpochBuilder{
		cfg:      p.Cfg,
		world:    world,
		store:    st,
		detector: p.detector,
		scanner:  p.scanner,
	}
	return p
}

// Collect runs every collection epoch, building the full hitlist (§3),
// then compacts the store: the insertion columns lose their append
// slack, and the membership index stays resident for the probing
// phases' point lookups (see ip6.ShardSet.Compact).
func (p *Pipeline) Collect() {
	for e := 0; e < p.Cfg.Sim.Epochs; e++ {
		p.Store.CollectDay(e * p.Cfg.Sim.EpochDays)
	}
	p.Store.Compact()
}

// Hitlist returns the accumulated hitlist — the sharded columnar address
// store every pipeline stage reads from. Its Sorted view is cached and
// shared: treat it as read-only.
func (p *Pipeline) Hitlist() *ip6.ShardSet { return p.Store.All() }

// RunAPD runs one APD day and returns its published epoch: the n = 1
// case of RunDaysFunc (sched.go). On the first day the builder derives
// the candidate set (hitlist multi-level mapping plus all BGP-announced
// prefixes); later days re-probe only prefixes that were close to
// aliased before (see EpochBuilder.ProbeDay).
func (p *Pipeline) RunAPD(day int) *Epoch {
	var ep *Epoch
	p.RunDaysFunc(day, 1, func(e *Epoch) { ep = e })
	return ep
}

// publish is the epoch publish point: one atomic pointer swap. Readers
// holding the previous epoch keep a fully-consistent view; new readers
// see the new day. Epochs must be published in day order (the
// orchestrator guarantees this).
func (p *Pipeline) publish(e *Epoch) { p.latest.Store(e) }

// Latest returns the most recently published epoch, RCU-style: a single
// atomic load, safe from any goroutine, nil before the first APD day.
// The returned epoch is immutable — hold it as long as needed.
func (p *Pipeline) Latest() *Epoch { return p.latest.Load() }

// Builder exposes the epoch builder that owns the day loop's mutable
// state (and, through Builder().History(), the live observation
// history). Probing methods must only be driven from one goroutine at a
// time; casual consumers want Latest instead.
func (p *Pipeline) Builder() *EpochBuilder { return p.builder }

// APDProbesSent reports probe packets spent on APD so far.
func (p *Pipeline) APDProbesSent() int { return p.detector.ProbesSent }

// Scan is one day's responsiveness measurement over the given targets: a
// view over the target list and the mask column the sweep wrote. Addrs
// and Masks are shared, read-only columns; the accessors below memoize
// their counts, so repeated consumers (Fig 6 alone queries a ~10^5-address
// scan several times) pay one counting pass total and every extraction
// allocates its exact output size.
type Scan struct {
	Day   int
	Addrs []ip6.Addr
	Masks []wire.RespMask

	counts memo[scanCounts]
}

// scanCounts holds a scan's responder counts: per protocol and on any.
type scanCounts struct {
	proto [wire.NumProtos]int
	any   int
}

// respCounts tallies per-protocol and any-protocol responder counts in
// one pass over the mask column, once per scan.
func (s *Scan) respCounts() scanCounts {
	return s.counts.get(func() (c scanCounts) {
		for _, m := range s.Masks {
			if !m.Any() {
				continue
			}
			c.any++
			for rest := uint8(m); rest != 0; rest &= rest - 1 {
				c.proto[bits.TrailingZeros8(rest)]++
			}
		}
		return c
	})
}

// Responsive returns the addresses that answered on the given protocol.
func (s *Scan) Responsive(p wire.Proto) []ip6.Addr {
	out := make([]ip6.Addr, 0, s.respCounts().proto[p])
	for i, m := range s.Masks {
		if m.Has(p) {
			out = append(out, s.Addrs[i])
		}
	}
	return out
}

// AnyResponsive returns addresses that answered at least one protocol.
func (s *Scan) AnyResponsive() []ip6.Addr {
	out := make([]ip6.Addr, 0, s.respCounts().any)
	for i, m := range s.Masks {
		if m.Any() {
			out = append(out, s.Addrs[i])
		}
	}
	return out
}

// Count returns how many targets answered on the protocol.
func (s *Scan) Count(p wire.Proto) int {
	return s.respCounts().proto[p]
}

// AnyCount returns how many targets answered at least one protocol.
func (s *Scan) AnyCount() int {
	return s.respCounts().any
}

// Sweep probes the targets on all five protocols for one day (§6). The
// returned Scan shares targets in Addrs: read-only.
func (p *Pipeline) Sweep(targets []ip6.Addr, day int) *Scan {
	return &Scan{Day: day, Addrs: targets, Masks: p.scanner.SweepSeqInto(targets, day, nil)}
}

// SweepSet sweeps the set's cached sorted view — sorted at most once per
// mutation epoch, never copied per sweep.
func (p *Pipeline) SweepSet(set *ip6.ShardSet, day int) *Scan { return p.Sweep(set.Sorted(), day) }

// ProbePairColumns sends the §5.4 fingerprinting probe pairs on TCP/80.
func (p *Pipeline) ProbePairColumns(targets []ip6.Addr, day int, out *probe.PairColumns) {
	p.scanner.ProbePairColumns(targets, wire.TCP80, day, out)
}

// SweepDays streams sweeps of the targets over consecutive days starting
// at day0, reusing one set of scan buffers throughout; fn sees each day's
// masks, valid only during the call (see probe.Scanner.SweepDays).
func (p *Pipeline) SweepDays(targets []ip6.Addr, day0, days int, fn func(day int, masks []wire.RespMask)) {
	p.scanner.SweepDays(targets, day0, days, fn)
}

// CleanTargets returns the latest published epoch's curated hitlist —
// the epoch's pinned sorted view minus aliased addresses, classified by
// the filter's chunk-parallel interval merge (memoized per epoch). It
// requires a published APD epoch and fails loudly — with a descriptive
// panic rather than an opaque nil dereference — when called before one
// exists.
func (p *Pipeline) CleanTargets() []ip6.Addr {
	e := p.Latest()
	if e == nil {
		panic("core: CleanTargets called before any APD epoch was published — run RunAPD or RunDaysFunc first")
	}
	return e.CleanTargets()
}
