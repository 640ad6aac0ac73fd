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
func String(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
