package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConcentration(t *testing.T) {
	c := NewConcentration([]int{30, 0, 50, 20, 0}) // zero counts are not groups
	if c.Groups() != 3 || c.Total() != 100 {
		t.Fatalf("Groups=%d Total=%d", c.Groups(), c.Total())
	}
	if got := c.TopFraction(1); got != 0.5 {
		t.Errorf("TopFraction(1) = %v", got)
	}
	if got := c.TopFraction(2); got != 0.8 {
		t.Errorf("TopFraction(2) = %v", got)
	}
	if got := c.TopFraction(3); got != 1.0 {
		t.Errorf("TopFraction(3) = %v", got)
	}
	if got := c.TopFraction(99); got != 1.0 {
		t.Errorf("TopFraction beyond groups = %v", got)
	}
}

func TestConcentrationMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := make([]int, 50)
		for i := range m {
			m[i] = rng.Intn(1000) + 1
		}
		c := NewConcentration(m)
		prev := 0.0
		for x := 1; x <= 50; x++ {
			cur := c.TopFraction(x)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return math.Abs(prev-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTopN pins the one ranking rule: count descending, ties by
// ascending index, zero counts never ranked, n beyond the column clipped.
func TestTopN(t *testing.T) {
	counts := []int{3, 0, 7, 3, 7, 1}
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{0, []int{}},
		{1, []int{2}},
		{3, []int{2, 4, 0}},
		{5, []int{2, 4, 0, 3, 5}},
		{99, []int{2, 4, 0, 3, 5}},
	} {
		got := TopN(counts, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("TopN(%v, %d) = %v, want %v", counts, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("TopN(%v, %d) = %v, want %v", counts, tc.n, got, tc.want)
			}
		}
	}
	if got := TopN(nil, 3); len(got) != 0 {
		t.Errorf("TopN(nil) = %v", got)
	}
}

func TestLogPoints(t *testing.T) {
	pts := LogPoints(100)
	want := []int{1, 2, 5, 10, 20, 50, 100}
	if len(pts) != len(want) {
		t.Fatalf("LogPoints(100) = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("LogPoints(100) = %v, want %v", pts, want)
		}
	}
	pts = LogPoints(7)
	if pts[len(pts)-1] != 7 {
		t.Errorf("LogPoints must end at max: %v", pts)
	}
}

func TestGini(t *testing.T) {
	even := NewConcentration([]int{10, 10, 10, 10})
	if g := even.Gini(); math.Abs(g) > 1e-9 {
		t.Errorf("even Gini = %v, want 0", g)
	}
	skewed := NewConcentration([]int{1000, 1, 1, 1})
	if g := skewed.Gini(); g < 0.7 {
		t.Errorf("skewed Gini = %v, want high", g)
	}
	if g := NewConcentration(nil).Gini(); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
}

func TestCondMatrix(t *testing.T) {
	m := NewCondMatrix([]string{"icmp", "tcp80"})
	// 10 targets respond to ICMP, of which 5 also to TCP80; 2 respond to
	// TCP80 only.
	for i := 0; i < 5; i++ {
		m.Observe([]bool{true, true})
	}
	for i := 0; i < 5; i++ {
		m.Observe([]bool{true, false})
	}
	for i := 0; i < 2; i++ {
		m.Observe([]bool{false, true})
	}
	if got := m.P("tcp80", "icmp"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("P(tcp80|icmp) = %v, want 0.5", got)
	}
	if got := m.P("icmp", "tcp80"); math.Abs(got-5.0/7.0) > 1e-9 {
		t.Errorf("P(icmp|tcp80) = %v, want 5/7", got)
	}
	if got := m.P("icmp", "icmp"); got != 1.0 {
		t.Errorf("P(x|x) = %v, want 1", got)
	}
	if m.Count("icmp") != 10 || m.Count("tcp80") != 7 {
		t.Errorf("counts: %d, %d", m.Count("icmp"), m.Count("tcp80"))
	}
	if m.P("nope", "icmp") != 0 {
		t.Error("unknown name should give 0")
	}
	if rows := m.Rows(); len(rows) != 2 {
		t.Errorf("Rows() = %d", len(rows))
	}
}

func TestLinearRegression(t *testing.T) {
	// Perfect line y = 2 + 3x.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 8, 11, 14, 17}
	r := LinearRegression(x, y)
	if math.Abs(r.Slope-3) > 1e-9 || math.Abs(r.Intercept-2) > 1e-9 || math.Abs(r.R2-1) > 1e-9 {
		t.Errorf("fit = %+v", r)
	}
	// Noise destroys R².
	yn := []float64{10, 2, 15, 3, 9}
	rn := LinearRegression(x, yn)
	if rn.R2 > 0.5 {
		t.Errorf("noisy R2 = %v", rn.R2)
	}
	// Degenerate inputs.
	if r := LinearRegression([]float64{1}, []float64{2}); r.N != 1 || r.R2 != 0 {
		t.Errorf("single point: %+v", r)
	}
	if r := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); r.R2 != 0 {
		t.Errorf("zero x-variance: %+v", r)
	}
	if r := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5}); r.R2 != 1 {
		t.Errorf("constant y with varying x should be degenerate-perfect: %+v", r)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 64)
	for _, v := range []int{1, 1, 2, 6, 6, 6, 32, 70, -5} {
		h.Observe(v)
	}
	if h.N != 9 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Buckets[64] != 1 || h.Buckets[0] != 1 {
		t.Error("clamping failed")
	}
	if got := h.FractionAtMost(6); math.Abs(got-7.0/9.0) > 1e-9 {
		t.Errorf("FractionAtMost(6) = %v", got)
	}
	if h.Median() != 6 {
		t.Errorf("Median = %d", h.Median())
	}
}

func TestSampleCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	s := SampleCap(items, 10, rng)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate in sample")
		}
		seen[v] = true
	}
	// No-op below cap, same backing array.
	small := []int{1, 2, 3}
	if got := SampleCap(small, 10, rng); len(got) != 3 {
		t.Errorf("below-cap sample changed length: %d", len(got))
	}
	// Original slice unmodified when sampling.
	for i, v := range items {
		if v != i {
			t.Fatal("SampleCap mutated input")
		}
	}
}

func TestSampleCapUniform(t *testing.T) {
	// Each element should appear with roughly equal frequency.
	rng := rand.New(rand.NewSource(2))
	items := []int{0, 1, 2, 3, 4}
	counts := make([]int, 5)
	const trials = 5000
	for i := 0; i < trials; i++ {
		for _, v := range SampleCap(items, 2, rng) {
			counts[v]++
		}
	}
	for i, c := range counts {
		got := float64(c) / float64(trials)
		if math.Abs(got-0.4) > 0.05 {
			t.Errorf("element %d frequency %v, want ~0.4", i, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("Median even = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("Median empty = %v", m)
	}
}

func TestEntropy4(t *testing.T) {
	var c [16]int
	// Constant nybble: zero entropy.
	c[5] = 100
	if h := Entropy4(&c); h != 0 {
		t.Errorf("constant entropy = %v", h)
	}
	// Uniform over 16 symbols: normalized entropy 1.
	for i := range c {
		c[i] = 10
	}
	if h := Entropy4(&c); math.Abs(h-1) > 1e-9 {
		t.Errorf("uniform entropy = %v", h)
	}
	// Uniform over 2 symbols: 1 bit / 4 = 0.25.
	c = [16]int{}
	c[0], c[1] = 50, 50
	if h := Entropy4(&c); math.Abs(h-0.25) > 1e-9 {
		t.Errorf("two-symbol entropy = %v", h)
	}
	// Empty: 0.
	c = [16]int{}
	if h := Entropy4(&c); h != 0 {
		t.Errorf("empty entropy = %v", h)
	}
}

// Property: entropy is always within [0,1].
func TestEntropyBounds(t *testing.T) {
	f := func(vals [16]uint16) bool {
		var c [16]int
		for i, v := range vals {
			c[i] = int(v)
		}
		h := Entropy4(&c)
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestObserveMaskMatchesObserve pins the packed-mask observation against
// the []bool path over every possible 5-protocol mask.
func TestObserveMaskMatchesObserve(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	ma, mb := NewCondMatrix(names), NewCondMatrix(names)
	for mask := 0; mask < 1<<5; mask++ {
		v := make([]bool, 5)
		for i := range v {
			v[i] = mask>>i&1 != 0
		}
		ma.Observe(v)
		mb.ObserveMask(uint32(mask))
	}
	for _, y := range names {
		for _, x := range names {
			if ma.P(y, x) != mb.P(y, x) {
				t.Fatalf("P(%s|%s): Observe %v vs ObserveMask %v", y, x, ma.P(y, x), mb.P(y, x))
			}
		}
		if ma.Count(y) != mb.Count(y) {
			t.Fatalf("Count(%s) differs", y)
		}
	}
}

// TestSortedKeys pins the ordered-key helper the maporder analyzer
// points violators at.
func TestSortedKeys(t *testing.T) {
	m := map[int]string{5: "e", 1: "a", 3: "c", 2: "b"}
	got := SortedKeys(m)
	want := []int{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}
