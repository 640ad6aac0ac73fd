package apd

import (
	"expanse/internal/ip6"
	"expanse/internal/lazyrand"
)

// Ablation support for the §5.1 design argument: fan-out probing places
// one pseudo-random target in each 4-bit subprefix, so a prefix whose
// subprefixes are only PARTIALLY aliased can never be misclassified as
// fully aliased. Purely random target selection — especially with few
// probes, as in Murdock et al.'s 3-address scheme — can land all probes
// inside the responding portion by chance.

// RandomTargets returns n purely random addresses inside p (no branch
// enforcement), deterministically derived from the prefix and salt.
func RandomTargets(p ip6.Prefix, n int, salt int64) []ip6.Addr {
	rng := lazyrand.New(int64(p.Addr().Hi()^p.Addr().Lo()) ^ salt)
	out := make([]ip6.Addr, n)
	for i := range out {
		out[i] = p.WithHostBits(rng.Uint64(), rng.Uint64())
	}
	return out
}

// PartialAliasResponder simulates the §5.1 case-3 phenomenon for the
// ablation: within each probed prefix, only the subprefixes whose first
// branch nybble is below Responding answer (e.g. Responding=9 → the 0x0-
// 0x8 branches are aliased, 0x9-0xf are dark).
type PartialAliasResponder struct {
	// Responding is how many of the 16 branches answer (1..15).
	Responding byte
	// Level is the nybble index (0-based) that decides the branch; set
	// it to Prefix.Bits()/4 of the probed prefix.
	Level int
}

// Answers reports whether the responder answers the given address.
func (r PartialAliasResponder) Answers(a ip6.Addr) bool {
	return a.Nybble(r.Level) < r.Responding
}

// MisclassificationRate measures how often a detection scheme labels a
// partially-aliased prefix as fully aliased: targetsFn generates the
// probe targets per trial; every probe into a responding branch answers.
// The fan-out scheme always sees the dark branches; random schemes can
// miss them.
func MisclassificationRate(p ip6.Prefix, r PartialAliasResponder, trials int,
	targetsFn func(trial int) []ip6.Addr) float64 {
	wrong := 0
	for t := 0; t < trials; t++ {
		all := true
		for _, a := range targetsFn(t) {
			if !r.Answers(a) {
				all = false
				break
			}
		}
		if all {
			wrong++
		}
	}
	return float64(wrong) / float64(trials)
}
