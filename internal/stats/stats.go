// Package stats provides the small statistical toolkit used throughout the
// hitlist pipeline: concentration curves ("fraction of addresses in the top
// X ASes", Figures 1b, 4, 9, 10 of the paper), conditional probability
// matrices (Figure 7), simple linear regression (the TCP timestamp R² test
// in §5.4), histograms, and deterministic sampling.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Concentration summarizes how addresses distribute over groups (ASes or
// prefixes). It is built from a count per group and supports CDF queries
// of the form "what fraction of addresses live in the top X groups".
type Concentration struct {
	counts []int // sorted descending
	total  int
}

// NewConcentration builds a concentration curve from one count per
// candidate group (a dense tally column: per announcement, per AS).
// Candidates with a zero count are not groups.
func NewConcentration(counts []int) *Concentration {
	c := &Concentration{}
	for _, n := range counts {
		if n > 0 {
			c.counts = append(c.counts, n)
			c.total += n
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(c.counts)))
	return c
}

// TopN ranks a dense count column: it returns the indices of the n
// largest non-zero counts, count descending, ties by ascending index.
// Dense columns are keyed in ascending key order (ASNs, announcement IDs,
// bitmask values), so the tie-break is "by key" and no ranking leaks an
// iteration order into a report.
func TopN(counts []int, n int) []int {
	var idx []int
	for i, c := range counts {
		if c > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return counts[idx[a]] > counts[idx[b]] })
	return idx[:min(n, len(idx))]
}

// Groups returns the number of distinct groups.
func (c *Concentration) Groups() int { return len(c.counts) }

// Total returns the total count over all groups.
func (c *Concentration) Total() int { return c.total }

// TopFraction returns the fraction of the total contributed by the top x
// groups. x larger than the number of groups returns 1.
func (c *Concentration) TopFraction(x int) float64 {
	if c.total == 0 {
		return 0
	}
	if x > len(c.counts) {
		x = len(c.counts)
	}
	s := 0
	for _, n := range c.counts[:x] {
		s += n
	}
	return float64(s) / float64(c.total)
}

// Curve evaluates TopFraction at the given support points, producing the
// series plotted in the paper's CDF figures (log-spaced X axis).
func (c *Concentration) Curve(points []int) []float64 {
	out := make([]float64, len(points))
	for i, x := range points {
		out[i] = c.TopFraction(x)
	}
	return out
}

// LogPoints returns 1, 2, 5, 10, 20, 50, ... up to max — the support used
// for the paper's log-X concentration plots.
func LogPoints(max int) []int {
	var pts []int
	for base := 1; base <= max; base *= 10 {
		for _, m := range []int{1, 2, 5} {
			if p := base * m; p <= max {
				pts = append(pts, p)
			}
		}
	}
	if len(pts) == 0 || pts[len(pts)-1] != max {
		pts = append(pts, max)
	}
	return pts
}

// Gini returns the Gini coefficient of the distribution, a single-number
// summary of bias: 0 = perfectly even over groups, →1 = concentrated in
// one group. Used to compare source balance in reports.
func (c *Concentration) Gini() float64 {
	n := len(c.counts)
	if n == 0 || c.total == 0 {
		return 0
	}
	// counts sorted descending; Gini over sorted ascending values.
	var cum, sum float64
	for i := n - 1; i >= 0; i-- {
		v := float64(c.counts[i])
		// position weight: 2*(rank) - n - 1 with ascending rank
		cum += v * float64(2*(n-i)-n-1)
		sum += v
	}
	return cum / (float64(n) * sum)
}

// CondMatrix is a square conditional-probability matrix over named
// protocols: M[y][x] = P(Y responds | X responds). Figure 7.
type CondMatrix struct {
	Names []string
	// joint[i][j] = count of targets responding to both i and j;
	// joint[i][i] = count responding to i.
	joint [][]int
}

// NewCondMatrix creates a matrix over the given protocol names.
func NewCondMatrix(names []string) *CondMatrix {
	m := &CondMatrix{Names: names, joint: make([][]int, len(names))}
	for i := range m.joint {
		m.joint[i] = make([]int, len(names))
	}
	return m
}

// Observe records one target's responsiveness vector (resp[i] = protocol i
// responded).
func (m *CondMatrix) Observe(resp []bool) {
	var mask uint32
	for i, ri := range resp {
		if ri {
			mask |= 1 << i
		}
	}
	m.ObserveMask(mask)
}

// ObserveMask is Observe with the responsiveness vector packed into a
// bitmask (bit i set = protocol i responded) — the form mask-columned
// scans hold natively, so per-observation []bool expansion disappears.
func (m *CondMatrix) ObserveMask(resp uint32) {
	for ri := resp; ri != 0; ri &= ri - 1 {
		row := m.joint[bits.TrailingZeros32(ri)]
		for rj := resp; rj != 0; rj &= rj - 1 {
			row[bits.TrailingZeros32(rj)]++
		}
	}
}

// P returns P(Y=y responds | X=x responds) by name.
func (m *CondMatrix) P(y, x string) float64 {
	yi, xi := m.index(y), m.index(x)
	if yi < 0 || xi < 0 || m.joint[xi][xi] == 0 {
		return 0
	}
	return float64(m.joint[xi][yi]) / float64(m.joint[xi][xi])
}

// Count returns the number of targets responding to protocol x.
func (m *CondMatrix) Count(x string) int {
	xi := m.index(x)
	if xi < 0 {
		return 0
	}
	return m.joint[xi][xi]
}

func (m *CondMatrix) index(name string) int {
	for i, n := range m.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Rows renders the matrix as formatted text rows (Y major), mirroring the
// layout of Figure 7.
func (m *CondMatrix) Rows() []string {
	rows := make([]string, 0, len(m.Names))
	for yi := len(m.Names) - 1; yi >= 0; yi-- {
		row := fmt.Sprintf("%-8s", m.Names[yi])
		for xi := range m.Names {
			row += fmt.Sprintf(" %6.3f", m.P(m.Names[yi], m.Names[xi]))
		}
		rows = append(rows, row)
	}
	return rows
}

// LinReg holds the result of an ordinary least squares fit y = a + b*x.
type LinReg struct {
	Intercept, Slope, R2 float64
	N                    int
}

// LinearRegression fits y against x. With fewer than two points or zero
// variance in x, R2 is 0 and the slope undefined (0).
func LinearRegression(x, y []float64) LinReg {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n < 2 {
		return LinReg{N: n}
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{N: n}
	}
	b := sxy / sxx
	r2 := 0.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	} else {
		r2 = 1 // y constant and x varies: perfect (degenerate) fit
	}
	return LinReg{Intercept: my - b*mx, Slope: b, R2: r2, N: n}
}

// Histogram counts values into unit buckets [min,max]; values outside are
// clamped. Used for IID hamming-weight analysis (§8).
type Histogram struct {
	Min, Max int
	Buckets  []int
	N        int
}

// NewHistogram creates a histogram over the inclusive integer range.
func NewHistogram(min, max int) *Histogram {
	return &Histogram{Min: min, Max: max, Buckets: make([]int, max-min+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v int) {
	if v < h.Min {
		v = h.Min
	}
	if v > h.Max {
		v = h.Max
	}
	h.Buckets[v-h.Min]++
	h.N++
}

// FractionAtMost returns the fraction of samples ≤ v.
func (h *Histogram) FractionAtMost(v int) float64 {
	if h.N == 0 {
		return 0
	}
	s := 0
	for i := h.Min; i <= v && i <= h.Max; i++ {
		s += h.Buckets[i-h.Min]
	}
	return float64(s) / float64(h.N)
}

// Median returns the (lower) median sample value.
func (h *Histogram) Median() int {
	if h.N == 0 {
		return h.Min
	}
	half := (h.N + 1) / 2
	s := 0
	for i, n := range h.Buckets {
		s += n
		if s >= half {
			return h.Min + i
		}
	}
	return h.Max
}

// SampleCap returns up to max elements drawn uniformly without replacement
// from items, deterministically from rng. If len(items) <= max the input
// order is preserved (no copy). This is the paper's "capped random sample
// of at most 100k addresses per AS" (§7.1).
func SampleCap[T any](items []T, max int, rng *rand.Rand) []T {
	if len(items) <= max {
		return items
	}
	// Partial Fisher-Yates over a copied slice.
	cp := make([]T, len(items))
	copy(cp, items)
	for i := 0; i < max; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:max]
}

// Median returns the median of a float slice (empty → 0). The input is not
// modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := make([]float64, len(v))
	copy(cp, v)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Entropy4 returns the Shannon entropy (base 2) of a distribution over 16
// symbols, normalized to [0,1] by dividing by 4 bits — equation (5) of the
// paper. counts holds occurrences per symbol.
func Entropy4(counts *[16]int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h / 4
}

// SortedKeys returns the map's keys in ascending order — the sanctioned
// way to iterate a map whose order could otherwise leak into a report
// or digest (expanselint's maporder analyzer flags the raw range).
// Prefix-keyed maps have their own ip6.SortedKeys in ComparePrefix
// order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
