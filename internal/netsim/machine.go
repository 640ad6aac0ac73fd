package netsim

import (
	"strings"

	"expanse/internal/lazyrand"
	"expanse/internal/wire"
)

// tsMode describes how a machine generates TCP timestamp values, the
// behaviours §5.4 of the paper distinguishes.
type tsMode uint8

const (
	// tsNone: no timestamp option in replies.
	tsNone tsMode = iota
	// tsMonotonic: one global counter (pre-4.10 Linux, BSDs) — the
	// high-confidence aliasing signal (same machine ⇒ one linear counter).
	tsMonotonic
	// tsPerTuple: randomized initial value per <SRC,DST> tuple
	// (Linux ≥ 4.10); monotonic per flow but useless across addresses.
	tsPerTuple
	// tsConstant: some middleboxes echo a fixed value.
	tsConstant
)

// machine is a fingerprint profile: the stable TCP/IP stack personality of
// one physical host. All addresses aliased to the same machine answer with
// the same profile; distinct hosts have their own.
type machine struct {
	iTTL   uint8 // initial hop limit: 32, 64, 128 or 255
	layout uint8 // index into wire.OptionLayouts
	mss    uint16
	wscale uint8
	wsize  uint16
	tsMode tsMode
	tsBase uint32 // counter start (boot time offset)
	tsHz   uint32 // counter rate (100, 250, 1000 Hz)
	key    uint64 // per-machine hash key (per-tuple ts, jitter)
}

// profile is a machine's personality packed into one word: indices into
// the value tables below in the low 17 bits, tsBase in the high 32. It is
// what the sealed world stores per host and per alias region.
type profile uint64

// machineRef is a machine as resolution hands it around and a probe
// answer carries it: the packed profile plus the key the per-tuple
// timestamp hashes need. unpack gives the working form.
type machineRef struct {
	prof profile
	key  uint64
}

// deriveMachine derives a machine from its key alone — the path of
// subscriber-line devices, a functional population with no columns.
func deriveMachine(key uint64) machineRef { return machineRef{newProfile(key), key} }

// Field offsets of the packed indices (widths follow the table sizes).
const (
	profOptShift    = 2
	profMSSShift    = 5
	profWScaleShift = 7
	profWSizeShift  = 10
	profTSModeShift = 13
	profTSHzShift   = 15
	profTSBaseShift = 32
)

// weighted is a discrete distribution: weights plus their total, summed
// once at init in slice order so every draw compares against the same
// float64 a per-call summation would produce.
type weighted struct {
	w     []float64
	total float64
}

func newWeighted(w ...float64) weighted {
	total := 0.0
	for _, x := range w {
		total += x
	}
	return weighted{w, total}
}

// pick draws an index with probability proportional to its weight.
func (d weighted) pick(rng *lazyrand.Source) profile {
	r := rng.Float64() * d.total
	for i, x := range d.w {
		r -= x
		if r < 0 {
			return profile(i)
		}
	}
	return profile(len(d.w) - 1)
}

// The value tables a profile indexes, each with its popularity (the
// option layouts are wire.OptionLayouts).
var (
	ittlValues   = [...]uint8{64, 255, 128, 32}
	mssValues    = [...]uint16{1440, 1460, 1380, 8940}
	wscaleValues = [...]uint8{7, 8, 9, 5, 2}
	wsizeValues  = [...]uint16{28800, 65535, 64240, 14600, 29200}
	tsModes      = [...]tsMode{tsMonotonic, tsPerTuple, tsConstant, tsNone}
	tsHzValues   = [...]uint32{1000, 250, 100}

	ittlDist   = newWeighted(0.72, 0.17, 0.10, 0.01)
	optDist    = newWeighted(0.995, 0.002, 0.0015, 0.001, 0.0005)
	mssDist    = newWeighted(0.55, 0.35, 0.07, 0.03)
	wscaleDist = newWeighted(0.5, 0.2, 0.15, 0.1, 0.05)
	wsizeDist  = newWeighted(0.35, 0.25, 0.2, 0.1, 0.1)
	tsModeDist = newWeighted(0.52, 0.36, 0.04, 0.08)
	tsHzDist   = newWeighted(0.6, 0.25, 0.15)
)

// newProfile derives a machine's deterministic profile from its key:
// eight draws of the math/rand stream seeded with the key. lazyrand
// computes just the register words those draws read, which makes it cheap
// enough to run per host at seal time and per answer for subscriber-line
// devices (about one answer in a hundred of a sweep).
func newProfile(key uint64) profile {
	rng := lazyrand.New(int64(key))
	p := ittlDist.pick(&rng)
	p |= optDist.pick(&rng) << profOptShift
	p |= mssDist.pick(&rng) << profMSSShift
	p |= wscaleDist.pick(&rng) << profWScaleShift
	p |= wsizeDist.pick(&rng) << profWSizeShift
	p |= tsModeDist.pick(&rng) << profTSModeShift
	p |= profile(rng.Uint32()) << profTSBaseShift
	p |= tsHzDist.pick(&rng) << profTSHzShift
	return p
}

// iTTL returns the profile's initial hop limit.
func (p profile) iTTL() uint8 { return ittlValues[p&3] }

// unpack expands the packed profile into the working form.
func (m machineRef) unpack() machine {
	p := m.prof
	return machine{
		iTTL:   p.iTTL(),
		layout: uint8(p >> profOptShift & 7),
		mss:    mssValues[p>>profMSSShift&3],
		wscale: wscaleValues[p>>profWScaleShift&7],
		wsize:  wsizeValues[p>>profWSizeShift&7],
		tsMode: tsModes[p>>profTSModeShift&3],
		tsBase: uint32(p >> profTSBaseShift),
		tsHz:   tsHzValues[p>>profTSHzShift&3],
		key:    m.key,
	}
}

// tsLayouts marks the option layouts that carry a timestamp option.
var tsLayouts = func() (ts [len(wire.OptionLayouts)]bool) {
	for i, l := range wire.OptionLayouts {
		ts[i] = strings.Contains(l, "TS")
	}
	return ts
}()

// hasTS reports whether the machine sends a timestamp option.
func (m *machine) hasTS() bool {
	return m.tsMode != tsNone && tsLayouts[m.layout]
}

// tsVal returns the TCP timestamp value the machine sends for a probe to
// dst-hash dstKey at virtual time at on the given day (0 if it sends
// none). It is the per-probe part of a SYN-ACK; everything else is
// static per machine (see fingerprint).
func (m *machine) tsVal(dstKey uint64, day int, at wire.Time) uint32 {
	if !m.hasTS() {
		return 0
	}
	// Elapsed virtual seconds since machine boot: days plus microseconds.
	elapsed := uint64(day)*86_400 + uint64(at)/1_000_000
	ticks := uint32(elapsed * uint64(m.tsHz))
	// Sub-second component so probes microseconds apart still advance.
	ticks += uint32(uint64(at) % 1_000_000 * uint64(m.tsHz) / 1_000_000)
	switch m.tsMode {
	case tsMonotonic:
		return m.tsBase + ticks
	case tsPerTuple:
		return uint32(hash2(m.key, dstKey)) + ticks
	default: // tsConstant
		return m.tsBase
	}
}

// fingerprint returns the machine's static SYN-ACK personality.
func (m *machine) fingerprint() wire.TCPFingerprint {
	return wire.NewTCPFingerprint(int(m.layout), m.mss, m.wscale, m.wsize, m.hasTS())
}
