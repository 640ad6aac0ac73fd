package netsim

import (
	"expanse/internal/hash64"
	"expanse/internal/ip6"
)

// The simulator answers questions like "does this address respond to
// TCP/80 on day 12?" for an address space far too large to materialize.
// All such answers derive from a keyed 64-bit mix function so they are
// deterministic (reproducible runs, stable tests) yet statistically
// indistinguishable from random for the algorithms under test.

// hash2 combines a key and one value.
func hash2(key, a uint64) uint64 { return hash64.Mix(key ^ hash64.Mix(a)) }

// hash3 combines a key and two values: the join of hash2(key, a) and
// half(b), so a caller drawing many hash3 values over few (key, a) or few
// b computes each half once.
func hash3(key, a, b uint64) uint64 { return join(hash2(key, a), half(b)) }

// half is hash3's half for its second value.
func half(b uint64) uint64 { return hash64.Mix(b + 0x9e3779b97f4a7c15) }

// join completes hash3 from its two halves.
func join(ka, hb uint64) uint64 { return hash64.Mix(ka ^ hb) }

// hashAddr folds an address into the keyed hash chain.
func hashAddr(key uint64, a ip6.Addr) uint64 {
	return hash3(key, a.Hi(), a.Lo())
}

// unit converts a hash to a float in [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// chance reports a deterministic biased coin with probability p keyed on h.
func chance(h uint64, p float64) bool { return unit(h) < p }
