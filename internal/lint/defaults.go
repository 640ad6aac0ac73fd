package lint

// This file is the suite's single source of truth for what the repo
// considers sealed, deterministic and hot. cmd/expanselint runs
// DefaultAnalyzers over every package; changing an invariant's scope
// means changing a table here, in one reviewed place.

// DefaultSealedTypes lists the RCU-published snapshot types and their
// seal packages. core.Epoch is the published day (Pipeline.Latest);
// ip6.FrozenView pins the hitlist a published epoch was sealed
// against; apd.DayColumn, apd.CandidateTable and apd.Verdicts are the
// write-once history column, the frozen candidate universe and the
// day's verdict column the seal stage and every epoch reader share
// lock-free.
var DefaultSealedTypes = []SealedType{
	{Qualified: "expanse/internal/core.Epoch", SealPkg: "expanse/internal/core"},
	{Qualified: "expanse/internal/ip6.FrozenView", SealPkg: "expanse/internal/ip6"},
	{Qualified: "expanse/internal/apd.DayColumn", SealPkg: "expanse/internal/apd"},
	{Qualified: "expanse/internal/apd.CandidateTable", SealPkg: "expanse/internal/apd"},
	{Qualified: "expanse/internal/apd.Verdicts", SealPkg: "expanse/internal/apd"},
	// netsim.Internet is the sealed columnar world plane: sorted host
	// columns, flat net/region/ISP columns. Only construction (inside the
	// package) writes it; every probe-time reader depends on the freeze.
	{Qualified: "expanse/internal/netsim.Internet", SealPkg: "expanse/internal/netsim"},
}

// DefaultDetRand scopes detrand to the planes whose outputs must be
// byte-identical for a fixed seed at any worker count. cmd/bench* and
// internal/prof measure wall-clock on purpose and are exempt (they are
// also outside the deterministic set, but the carve-out is explicit so
// the policy survives future set growth).
var DefaultDetRand = DetRandConfig{
	Deterministic: []string{
		"expanse/internal/core",
		"expanse/internal/apd",
		"expanse/internal/probe",
		"expanse/internal/netsim",
		"expanse/internal/cluster",
		"expanse/internal/entropy",
		// The §7 generators run under the per-AS fan-out of the
		// generation study; their output is merged in AS order.
		"expanse/internal/eip",
		"expanse/internal/sixgen",
		// The collectors keep state between epochs (what each source has
		// reported, scamper's cursors and hop references): all of it a
		// function of the call sequence, none of the clock.
		"expanse/internal/sources",
	},
	Exempt: []string{
		"expanse/cmd/bench",
		"expanse/internal/prof",
	},
}

// DefaultHotFuncs designates the per-probe/per-candidate inner loops —
// the functions PRs 4-7 repeatedly had to de-allocate by profile.
var DefaultHotFuncs = []HotFunc{
	// The scan engine: every scan is scanLanes, whose per-batch loop hands
	// the responder all lanes of a batch at once (a lane slice or a
	// send-time scratch made per batch there is the regression to catch).
	{PkgPath: "expanse/internal/probe", Func: "ScanColumns"},
	{PkgPath: "expanse/internal/probe", Func: "ScanProtos"},
	{PkgPath: "expanse/internal/probe", Func: "scanLanes"},
	// The responder kernel: ProbeLanes and its per-destination loop
	// (probeLanes), ProbeBatch its one-lane call, emit its column writer.
	{PkgPath: "expanse/internal/netsim", Func: "ProbeLanes"},
	{PkgPath: "expanse/internal/netsim", Func: "probeLanes"},
	{PkgPath: "expanse/internal/netsim", Func: "ProbeBatch"},
	{PkgPath: "expanse/internal/netsim", Func: "emit"},
	// The columnar world plane's resolution primitives: locate, the one
	// per-destination owner decision behind both Probe and ProbeLanes,
	// answer, the per-lane half, the sorted-column binary searches and the
	// host-column run cursor (hostRun.lookup; the interval cursor is
	// ip6's, below).
	{PkgPath: "expanse/internal/netsim", Func: "locate"},
	{PkgPath: "expanse/internal/netsim", Func: "answer"},
	{PkgPath: "expanse/internal/netsim", Func: "find"},
	{PkgPath: "expanse/internal/netsim", Func: "search"},
	{PkgPath: "expanse/internal/netsim", Func: "lookup"},
	// A positive answer and the machine profile behind it: per responding
	// probe for hosts and regions (answerRaw), per answer for subscriber-line
	// devices and per host at seal (newProfile).
	{PkgPath: "expanse/internal/netsim", Func: "answerRaw"},
	{PkgPath: "expanse/internal/netsim", Func: "newProfile"},
	// Per-candidate fan-out derivation and the lazily seeded generator's
	// draw under it and under newProfile.
	{PkgPath: "expanse/internal/apd", Func: "fanOutWith"},
	{PkgPath: "expanse/internal/lazyrand", Func: "Uint64"},
	{PkgPath: "expanse/internal/apd", Func: "ProbeDayFlat"},
	{PkgPath: "expanse/internal/apd", Func: "MergeColumns"},
	{PkgPath: "expanse/internal/wire", Func: "ProbeBatchInto"},
	{PkgPath: "expanse/internal/ip6", Func: "LookupInterval"},
	{PkgPath: "expanse/internal/ip6", Func: "CompileIntervals"},
	// The one interval cursor (IntervalCursor.Lookup): per-probe in the
	// world's locate, per-address in the routing table's attribution.
	{PkgPath: "expanse/internal/ip6", Func: "Lookup"},
	// The hitlist store's membership index: the probe behind every
	// Contains and insert, and the insert behind every Add and AddSlice.
	{PkgPath: "expanse/internal/ip6", Func: "find"},
	{PkgPath: "expanse/internal/ip6", Func: "insert"},
	// The routing table's point query and the attribution kernel's
	// per-address walk, behind every per-prefix and per-AS report tally.
	{PkgPath: "expanse/internal/bgp", Func: "Lookup"},
	{PkgPath: "expanse/internal/bgp", Func: "Resolve"},
	// Collection's traceroute plane: the hop-reference kernel behind
	// TraceroutePath and scamper, scamper's per-new-target loop and its
	// per-subscriber-target CPE pass — the loops that used to build a hop
	// slice per target and dedup through a map.
	{PkgPath: "expanse/internal/netsim", Func: "HopRefs"},
	{PkgPath: "expanse/internal/sources", Func: "traceTargets"},
	{PkgPath: "expanse/internal/sources", Func: "cpeHops"},
	// The Entropy/IP best-first walk: one expand per popped frontier
	// node, one child per mined value — the loop that used to allocate a
	// node and a choice vector per child.
	{PkgPath: "expanse/internal/eip", Func: "expand"},
}

// DefaultAnalyzers returns the full suite wired to the repo tables.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewMapOrder(),
		NewSealedWrite(DefaultSealedTypes),
		NewDetRand(DefaultDetRand),
		NewHotAlloc(DefaultHotFuncs),
	}
}
