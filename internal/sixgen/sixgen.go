// Package sixgen reimplements 6Gen (Murdock et al., IMC 2017), the
// second target-generation tool evaluated in §7: it finds dense regions
// of the seed address space by growing nybble ranges around seeds with
// minimal dilation while the range stays dense, then generates the
// unseen addresses of the densest ranges first.
package sixgen

import (
	"math"
	"sort"

	"expanse/internal/ip6"
)

// Range is a cluster's bounding box in nybble space: a contiguous
// [lo,hi] interval of observed values per nybble position — 6Gen's range
// representation (which is what lets it propose the gaps between seeds).
type Range struct {
	lo, hi [32]byte
}

// NewRange returns the range covering a single address.
func NewRange(a ip6.Addr) Range {
	var r Range
	n := a.Nybbles()
	r.lo, r.hi = n, n
	return r
}

// Add widens the range to cover a.
func (r *Range) Add(a ip6.Addr) {
	n := a.Nybbles()
	for i := 0; i < 32; i++ {
		if n[i] < r.lo[i] {
			r.lo[i] = n[i]
		}
		if n[i] > r.hi[i] {
			r.hi[i] = n[i]
		}
	}
}

// Union returns the bounding range of two ranges.
func (r Range) Union(o Range) Range {
	u := r
	for i := 0; i < 32; i++ {
		if o.lo[i] < u.lo[i] {
			u.lo[i] = o.lo[i]
		}
		if o.hi[i] > u.hi[i] {
			u.hi[i] = o.hi[i]
		}
	}
	return u
}

// LogSize returns log16 of the number of addresses in the range.
func (r Range) LogSize() float64 {
	s := 0.0
	for i := 0; i < 32; i++ {
		s += math.Log2(float64(int(r.hi[i]-r.lo[i]) + 1))
	}
	return s / 4
}

// Contains reports whether the range covers a.
func (r Range) Contains(a ip6.Addr) bool {
	n := a.Nybbles()
	for i := 0; i < 32; i++ {
		if n[i] < r.lo[i] || n[i] > r.hi[i] {
			return false
		}
	}
	return true
}

// Cluster is a grown dense region.
type Cluster struct {
	Range Range
	Seeds int
}

// Config bounds cluster growth.
type Config struct {
	// MaxClusterLogSize caps a cluster's range at 16^MaxClusterLogSize
	// addresses regardless of density (default 8).
	MaxClusterLogSize float64
	// MaxDilution caps how sparse a cluster may get: the range may hold
	// at most 16^MaxDilution × seeds addresses (default 1.5, i.e. ~64×).
	MaxDilution float64
}

func (c *Config) defaults() {
	if c.MaxClusterLogSize <= 0 {
		c.MaxClusterLogSize = 8
	}
	if c.MaxDilution <= 0 {
		c.MaxDilution = 1.5
	}
}

// fits reports whether a range with the given seed count respects the
// growth bounds.
func (cfg Config) fits(r Range, seeds int) bool {
	ls := r.LogSize()
	if ls > cfg.MaxClusterLogSize {
		return false
	}
	return ls <= math.Log2(float64(seeds))/4+cfg.MaxDilution
}

// Grow clusters the seeds: sorted seeds are absorbed greedily while the
// range stays dense; a merge pass then joins adjacent compatible
// clusters. This is the greedy variant of 6Gen's tightest-range growth.
func Grow(seeds []ip6.Addr, cfg Config) []Cluster {
	cfg.defaults()
	if len(seeds) == 0 {
		return nil
	}
	sorted := make([]ip6.Addr, len(seeds))
	copy(sorted, seeds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	var clusters []Cluster
	cur := Cluster{Range: NewRange(sorted[0]), Seeds: 1}
	for _, a := range sorted[1:] {
		u := cur.Range
		u.Add(a)
		if cfg.fits(u, cur.Seeds+1) {
			cur.Range = u
			cur.Seeds++
		} else {
			clusters = append(clusters, cur)
			cur = Cluster{Range: NewRange(a), Seeds: 1}
		}
	}
	clusters = append(clusters, cur)

	// Merge pass: neighbours whose union is still dense are combined.
	merged := clusters[:1]
	for _, c := range clusters[1:] {
		last := &merged[len(merged)-1]
		u := last.Range.Union(c.Range)
		if cfg.fits(u, last.Seeds+c.Seeds) {
			last.Range = u
			last.Seeds += c.Seeds
		} else {
			merged = append(merged, c)
		}
	}
	// Densest clusters first: they get generation budget first.
	sort.Slice(merged, func(i, j int) bool {
		di := math.Log2(float64(merged[i].Seeds))/4 - merged[i].Range.LogSize()
		dj := math.Log2(float64(merged[j].Seeds))/4 - merged[j].Range.LogSize()
		if di != dj {
			return di > dj
		}
		return merged[i].Seeds > merged[j].Seeds
	})
	return merged
}

// Generate enumerates up to budget unseen addresses from the clusters,
// densest cluster first, skipping seeds.
func Generate(seeds []ip6.Addr, budget int, cfg Config) []ip6.Addr {
	if budget <= 0 {
		return nil
	}
	clusters := Grow(seeds, cfg)
	seedSet := make(map[ip6.Addr]bool, len(seeds))
	for _, a := range seeds {
		seedSet[a] = true
	}
	var out []ip6.Addr
	emitted := make(map[ip6.Addr]bool, budget)
	for _, c := range clusters {
		if len(out) >= budget {
			break
		}
		enumerateRange(c.Range, func(a ip6.Addr) bool {
			if !seedSet[a] && !emitted[a] {
				emitted[a] = true
				out = append(out, a)
			}
			return len(out) < budget
		})
	}
	return out
}

// enumerateRange iterates the cartesian product of the per-nybble
// intervals in ascending address order, calling fn until it returns
// false.
func enumerateRange(r Range, fn func(ip6.Addr) bool) {
	var nyb [32]byte
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == 32 {
			return fn(ip6.AddrFromNybbles(nyb))
		}
		for v := r.lo[pos]; ; v++ {
			nyb[pos] = v
			if !rec(pos + 1) {
				return false
			}
			if v == r.hi[pos] {
				break
			}
		}
		return true
	}
	rec(0)
}
