package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// blobs generates n points around each given center with the given spread.
func blobs(centers [][]float64, n int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	for _, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for d := range c {
				p[d] = c[d] + rng.NormFloat64()*spread
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {0, 10}}
	pts := blobs(centers, 50, 0.5, 1)
	res := KMeansWorkers(pts, 3, 7, 1)
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// All points of one blob must share an assignment.
	for b := 0; b < 3; b++ {
		want := res.Assign[b*50]
		for i := 0; i < 50; i++ {
			if res.Assign[b*50+i] != want {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	// And the three blobs must be in three different clusters.
	if res.Assign[0] == res.Assign[50] || res.Assign[50] == res.Assign[100] || res.Assign[0] == res.Assign[100] {
		t.Error("blobs merged")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {5, 5}}, 100, 1, 2)
	a := KMeansWorkers(pts, 2, 9, 1)
	b := KMeansWorkers(pts, 2, 9, 1)
	if a.SSE != b.SSE {
		t.Error("SSE differs between identical runs")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("assignment differs between identical runs")
		}
	}
}

// TestKMeansWorkersIdentical pins the chunked assignment step: results
// are byte-identical across worker counts 1/4/16, above and below the
// parallel threshold.
func TestKMeansWorkersIdentical(t *testing.T) {
	for _, n := range []int{50, assignParallelMin + 37} {
		pts := blobs([][]float64{{0, 0}, {8, 0}, {0, 8}}, n, 1.1, 13)
		ref := KMeansWorkers(pts, 4, 9, 1)
		for _, w := range []int{4, 16} {
			got := KMeansWorkers(pts, 4, 9, w)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("n=%d workers=%d: result differs from serial", n, w)
			}
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if r := KMeansWorkers(nil, 3, 1, 1); r.K != 0 || r.Assign != nil {
		t.Error("empty input should give empty result")
	}
	if r := KMeansWorkers([][]float64{{1}}, 0, 1, 1); r.K != 0 {
		t.Error("k=0 should give empty result")
	}
	// k > n clamps.
	r := KMeansWorkers([][]float64{{1}, {2}}, 10, 1, 1)
	if r.K != 2 {
		t.Errorf("K = %d, want clamp to 2", r.K)
	}
	// Identical points: SSE 0, single effective cluster fine.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	r = KMeansWorkers(same, 2, 1, 1)
	if r.SSE != 0 {
		t.Errorf("identical points SSE = %v", r.SSE)
	}
}

// TestKMeansEmptyClusterRepair is the regression test for the stale
// empty-cluster repair. Two distinct values with k=3 force k-means++ to
// duplicate a centroid (its d² weights are all zero after two picks), so
// the duplicate's cluster comes up empty and must be repaired on the
// iteration the loop would otherwise terminate on. The old code reseeded
// the centroid after the convergence flag was computed and broke out
// without ever reassigning, returning a Result whose repaired centroid
// owned no points and whose SSE was measured against stale assignments.
func TestKMeansEmptyClusterRepair(t *testing.T) {
	cases := [][][]float64{
		{{0, 0}, {0, 0}, {0, 0}, {9, 9}, {9, 9}, {9, 9}},
		// A singleton cluster plus a duplicate pair: the repair must
		// donate from the pair, never empty the singleton (which would
		// oscillate the hole between clusters until the iteration cap).
		{{0, 0}, {9, 9}, {9, 9}},
	}
	for ci, pts := range cases {
		for seed := int64(0); seed < 50; seed++ {
			res := KMeansWorkers(pts, 3, seed, 1)
			if res.K != 3 {
				t.Fatalf("case %d seed %d: K = %d", ci, seed, res.K)
			}
			owned := make([]int, res.K)
			for _, c := range res.Assign {
				owned[c]++
			}
			for c, n := range owned {
				if n == 0 {
					t.Fatalf("case %d seed %d: cluster %d owns no points after repair (assign=%v)", ci, seed, c, res.Assign)
				}
			}
			// SSE must be measured against the returned assignment/centroids.
			sse := 0.0
			for i, p := range pts {
				sse += sqDist(p, res.Centroids[res.Assign[i]])
			}
			if math.Abs(sse-res.SSE) > 1e-12 {
				t.Fatalf("case %d seed %d: reported SSE %v != recomputed %v", ci, seed, res.SSE, sse)
			}
			// And every point must sit on a nearest centroid (ties allowed).
			for i, p := range pts {
				da := sqDist(p, res.Centroids[res.Assign[i]])
				for _, c := range res.Centroids {
					if sqDist(p, c) < da-1e-12 {
						t.Fatalf("case %d seed %d: point %d not assigned to a nearest centroid", ci, seed, i)
					}
				}
			}
		}
	}
	// k == n with fewer distinct values: the repair splits the duplicate
	// pair across clusters, so every cluster owns its own point exactly.
	res := KMeansWorkers([][]float64{{1}, {1}, {5}}, 3, 3, 1)
	if res.SSE != 0 {
		t.Errorf("k==n with duplicates: SSE = %v, want 0", res.SSE)
	}
	seen := map[int]bool{}
	for _, c := range res.Assign {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Errorf("k==n with duplicates: %d clusters own points, want 3 (assign=%v)", len(seen), res.Assign)
	}
}

// Property: SSE decreases (weakly) as k grows.
func TestSSEMonotoneInK(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}}, 30, 1.0, 3)
	curve := ElbowResults(pts, 8, 11, 1)
	for i := 1; i < len(curve); i++ {
		// Allow tiny increases from local minima; k-means is a heuristic.
		if curve[i].SSE > curve[i-1].SSE*1.10+1e-9 {
			t.Errorf("SSE rose sharply at k=%d: %v -> %v", i+1, curve[i-1].SSE, curve[i].SSE)
		}
	}
}

func TestElbowFindsTrueK(t *testing.T) {
	// Four well-separated blobs: elbow should be at (or adjacent to) 4.
	pts := blobs([][]float64{{0, 0}, {20, 0}, {0, 20}, {20, 20}}, 40, 0.5, 4)
	res, curve := ChooseK(pts, 10, 5, 1)
	if len(curve) != 10 {
		t.Fatalf("curve length %d", len(curve))
	}
	if res.K < 3 || res.K > 5 {
		t.Errorf("elbow k = %d, want ~4", res.K)
	}
}

// TestChooseKReturnsSweepResult pins the single-run contract: the Result
// ChooseK returns IS the sweep's run at the elbow k — byte-identical to
// an independent KMeans at that k — so report paths never pay a second
// k-means run for the chosen k.
func TestChooseKReturnsSweepResult(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {12, 0}, {0, 12}}, 40, 0.8, 6)
	res, curve := ChooseK(pts, 8, 17, 1)
	if res.K == 0 {
		t.Fatal("no result chosen")
	}
	if res.SSE != curve[res.K-1] {
		t.Errorf("result SSE %v != curve[%d] %v", res.SSE, res.K-1, curve[res.K-1])
	}
	if want := KMeansWorkers(pts, res.K, 17, 1); !reflect.DeepEqual(res, want) {
		t.Error("ChooseK result differs from a fresh KMeans at the chosen k")
	}
}

// TestElbowSweepAcrossWorkers pins the concurrent sweep: every per-k
// Result — assignments, centroids, SSE — is byte-identical across worker
// counts 1/4/16 (each run seeds its own generator, so runs share no
// state no matter how they are scheduled).
func TestElbowSweepAcrossWorkers(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {9, 0}, {0, 9}, {9, 9}}, 35, 1.0, 8)
	ref := ElbowResults(pts, 12, 0x16c18, 1)
	for _, w := range []int{4, 16} {
		got := ElbowResults(pts, 12, 0x16c18, w)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: sweep differs from serial", w)
		}
	}
}

func TestElbowDegenerate(t *testing.T) {
	if k := Elbow(nil); k != 0 {
		t.Errorf("empty curve k = %d", k)
	}
	if k := Elbow([]float64{5}); k != 1 {
		t.Errorf("single point k = %d", k)
	}
	if k := Elbow([]float64{5, 5, 5}); k != 1 {
		t.Errorf("flat curve k = %d", k)
	}
	if res, curve := ChooseK(nil, 5, 1, 4); res.K != 0 || len(curve) != 0 {
		t.Error("ChooseK on empty input should give empty result and curve")
	}
}

func TestSummarize(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {10, 10}}, 30, 0.3, 6)
	// Make blob sizes unequal: drop 10 points of the second blob.
	pts = pts[:50]
	res := KMeansWorkers(pts, 2, 7, 1)
	sums := Summarize(pts, res)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Size < sums[1].Size {
		t.Error("summaries not popularity ordered")
	}
	if sums[0].ID != 1 || sums[1].ID != 2 {
		t.Error("IDs not 1-based popularity ranks")
	}
	if math.Abs(sums[0].Share+sums[1].Share-1) > 1e-9 {
		t.Error("shares must sum to 1")
	}
	// Median entropy of the big blob (~(0,0)) close to 0 per dim.
	big := sums[0]
	if math.Abs(big.MedianEntropy[0]) > 0.5 {
		t.Errorf("big blob median = %v", big.MedianEntropy)
	}
	if s := Summarize(nil, Result{}); s != nil {
		t.Error("empty summarize should be nil")
	}
}

// Property: every k-means assignment is a valid cluster index and every
// point is assigned to its nearest centroid (local optimality).
func TestAssignmentsNearest(t *testing.T) {
	f := func(seed int64) bool {
		pts := blobs([][]float64{{0, 0}, {6, 6}}, 25, 1.2, seed)
		res := KMeansWorkers(pts, 3, seed, 1)
		for i, p := range pts {
			a := res.Assign[i]
			if a < 0 || a >= res.K {
				return false
			}
			da := sqDist(p, res.Centroids[a])
			for _, c := range res.Centroids {
				if sqDist(p, c) < da-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKMeans(b *testing.B) {
	pts := blobs([][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}, {15, 15}}, 300, 1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansWorkers(pts, 6, 9, 1)
	}
}

// elbowBenchPoints approximates the clustering input of Fig 2: a few
// hundred 24-dimensional fingerprint-like vectors.
func elbowBenchPoints() [][]float64 {
	centers := make([][]float64, 6)
	rng := rand.New(rand.NewSource(15))
	for i := range centers {
		centers[i] = make([]float64, 24)
		for d := range centers[i] {
			centers[i][d] = rng.Float64()
		}
	}
	return blobs(centers, 80, 0.05, 16)
}

func BenchmarkElbowSweep(b *testing.B) {
	pts := elbowBenchPoints()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ChooseK(pts, 20, 0x16c18, w)
			}
		})
	}
}

// BenchmarkLegacyElbowSweep measures the pre-refactor report path: a
// serial k = 1..kmax sweep followed by a second KMeans run at the chosen
// k (the double-work pattern ChooseK now eliminates).
func BenchmarkLegacyElbowSweep(b *testing.B) {
	pts := elbowBenchPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := make([]float64, 20)
		for k := 1; k <= 20; k++ {
			curve[k-1] = KMeansWorkers(pts, k, 0x16c18, 1).SSE
		}
		KMeansWorkers(pts, Elbow(curve), 0x16c18, 1)
	}
}
