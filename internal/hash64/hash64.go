// Package hash64 is the one home of the repo's two keyed-decision hashes:
// the splitmix64 finalizer behind every address, prefix and world draw,
// and the FNV-1a string hash behind per-name draws. Their output bits
// are pinned downstream (world digests, fan-out targets, collection
// epochs), so neither may change.
package hash64

// Mix is the splitmix64 finalizer, a high-quality 64-bit mixer.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// offset64 is FNV-1a's initial state: the hash of the empty string.
const offset64 = 14695981039346656037

// String is 64-bit FNV-1a over the bytes of s.
func String(s string) uint64 { return Continue(offset64, s) }

// Continue folds the bytes of parts into h, a running FNV-1a state such
// as String returns: Continue(String(a), b) is String(a+b). A hash can
// thus be built piece by piece, digits from a stack buffer included,
// without the string it hashes ever existing.
func Continue[S ~string | ~[]byte](h uint64, parts ...S) uint64 {
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
