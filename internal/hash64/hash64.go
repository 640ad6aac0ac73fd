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

// String is 64-bit FNV-1a over the bytes of s.
func String(s string) uint64 { return fnv1a(14695981039346656037, s) }

// Strings is String over the concatenation of parts, without building
// the concatenated string.
func Strings(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range parts {
		h = fnv1a(h, s)
	}
	return h
}

// fnv1a folds the bytes of s into the running FNV-1a state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
