// Package cluster implements k-means clustering with k-means++ seeding,
// the elbow method for choosing k, and the median-entropy cluster
// summaries of the paper's Figure 2 (§4: "we run the k-means algorithm on
// the obtained dataset … we use the well-known elbow method to find the
// number of clusters").
//
// Two independent axes parallelize without changing a single byte of
// output: the elbow sweep runs its k = 1..kmax k-means instances
// concurrently (each instance derives its randomness from the same
// per-run seed, so the runs never share state), and within one k-means
// run the assignment step chunks points across workers (each point's
// nearest centroid is a pure function of the centroids, and the
// per-chunk changed flags merge by OR). Centroid accumulation and SSE
// stay serial so float summation order is fixed.
package cluster

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"expanse/internal/par"
	"expanse/internal/stats"
)

// Result of one k-means run.
type Result struct {
	K         int
	Assign    []int       // cluster id per point, in input order
	Centroids [][]float64 // k centroid vectors
	SSE       float64     // sum of squared distances to assigned centroid
}

// assignParallelMin is the point count below which the assignment step is
// not worth fanning out.
const assignParallelMin = 1 << 10

// KMeansWorkers clusters points into k groups. Deterministic for a given
// seed. Points must all have equal dimension. Empty input or k <= 0
// yields an empty result; k > len(points) is clamped. The assignment step
// is chunked over up to workers goroutines; the worker count is purely a
// throughput knob: the result is byte-identical for every value.
//
// Ties in the assignment step keep the incumbent cluster (a point moves
// only on strict improvement). Empty clusters are repaired by reseeding
// the centroid on the farthest point whose current cluster can spare it
// (owns more than one point) and moving that point into the repaired
// cluster immediately, so every returned cluster owns at least one point
// and the assignment stays consistent with the centroids even if the
// iteration cap stops the loop right after a repair. (An earlier version
// reseeded the centroid after the convergence flag was computed, so the
// loop could terminate with the repaired centroid owning no points and
// the final SSE measured against a centroid no point was assigned to.)
func KMeansWorkers(points [][]float64, k int, seed int64, workers int) Result {
	n := len(points)
	if n == 0 || k <= 0 {
		return Result{}
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	dim := len(points[0])
	const maxIter = 100
	for iter := 0; iter < maxIter; iter++ {
		changed := assignStep(points, centroids, assign, workers)
		// Recompute centroids. Serial accumulation: float sums depend on
		// addition order, and byte-identical results across worker counts
		// matter more than parallelizing an O(n·dim) pass dominated by the
		// O(n·k·dim) assignment above.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		// Repair empty clusters BEFORE computing any means, while sums are
		// still raw: re-seed on the farthest point whose cluster owns more
		// than one point (never emptying a singleton, which would
		// oscillate the hole between clusters) and move that point over,
		// updating sums and counts on both sides. The mean pass below then
		// yields centroids consistent with the final assignment even if
		// the iteration cap stops the loop right after a repair.
		for c := range centroids {
			if counts[c] != 0 {
				continue
			}
			far, fd := -1, -1.0
			for i, p := range points {
				if counts[assign[i]] < 2 {
					continue
				}
				if d := sqDist(p, centroids[assign[i]]); d > fd {
					far, fd = i, d
				}
			}
			if far < 0 {
				// Unreachable while k <= n (an empty cluster then implies
				// some cluster owns two points); kept as a guard so a
				// future invariant change degrades to an un-repaired
				// cluster instead of corrupting counts.
				continue
			}
			donor := assign[far]
			for d, v := range points[far] {
				sums[donor][d] -= v
				sums[c][d] = v
			}
			counts[donor]--
			counts[c] = 1
			assign[far] = c
			changed = true
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // un-repaired (see guard above): keep the old centroid
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}
	sse := 0.0
	for i, p := range points {
		sse += sqDist(p, centroids[assign[i]])
	}
	return Result{K: k, Assign: assign, Centroids: centroids, SSE: sse}
}

// assignStep assigns every point to its nearest centroid (keeping the
// incumbent on exact ties) and reports whether anything moved. Each
// point's new assignment is a pure function of the centroids, so chunking
// points across workers is byte-identical to the serial pass; the changed
// flags merge by OR.
func assignStep(points [][]float64, centroids [][]float64, assign []int, workers int) bool {
	n := len(points)
	span := func(lo, hi int) bool {
		changed := false
		for i := lo; i < hi; i++ {
			p := points[i]
			best := assign[i]
			bd := sqDist(p, centroids[best])
			for c, cen := range centroids {
				if c == best {
					continue
				}
				if d := sqDist(p, cen); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		return changed
	}
	var changed atomic.Bool
	par.Ranges(n, workers, assignParallelMin, 1, func(_, lo, hi int) {
		if span(lo, hi) {
			changed.Store(true)
		}
	})
	return changed.Load()
}

// seedPlusPlus is k-means++ initialization: the first centroid uniform,
// each next chosen with probability proportional to squared distance to
// the closest existing centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(len(points))]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ElbowResults runs KMeans for every k = 1..kmax, fanning the runs out
// over up to workers goroutines. Every run derives its randomness from
// the same seed independently (exactly as the serial sweep did), so the
// sweep is byte-identical for every worker count. When there are spare
// workers beyond the number of k values, the surplus fans out inside each
// run's assignment step.
func ElbowResults(points [][]float64, kmax int, seed int64, workers int) []Result {
	if kmax > len(points) {
		kmax = len(points)
	}
	if kmax <= 0 {
		return nil
	}
	// Large k runs cost far more than small ones, so k values go through
	// a shared queue rather than contiguous chunks, largest k first (LPT
	// scheduling: the costliest run must not start last). out is indexed,
	// so scheduling order cannot affect the result.
	out := make([]Result, kmax)
	par.Queue(kmax, workers, func(_, i, inner int) {
		k := kmax - i
		out[k-1] = KMeansWorkers(points, k, seed, inner)
	})
	return out
}

// Elbow picks the k at the "elbow" of the SSE curve: the point with
// maximum distance to the chord between the first and last curve points
// (the standard geometric formalization of the paper's visual method).
func Elbow(sse []float64) int {
	n := len(sse)
	if n <= 2 {
		return n
	}
	x1, y1 := 1.0, sse[0]
	x2, y2 := float64(n), sse[n-1]
	den := math.Hypot(x2-x1, y2-y1)
	if den == 0 {
		return 1
	}
	bestK, bestD := 1, -1.0
	for k := 1; k <= n; k++ {
		// Distance from (k, sse[k-1]) to the chord.
		d := math.Abs((y2-y1)*float64(k)-(x2-x1)*sse[k-1]+x2*y1-y2*x1) / den
		if d > bestD {
			bestK, bestD = k, d
		}
	}
	return bestK
}

// ChooseK runs the elbow method end to end and returns the winning
// k-means Result (the sweep's run at the elbow k) along with the SSE
// curve, so callers never re-run KMeans at the chosen k.
func ChooseK(points [][]float64, kmax int, seed int64, workers int) (Result, []float64) {
	results := ElbowResults(points, kmax, seed, workers)
	curve := make([]float64, len(results))
	for i, r := range results {
		curve[i] = r.SSE
	}
	k := Elbow(curve)
	if k == 0 {
		return Result{}, curve
	}
	return results[k-1], curve
}

// Summary describes one cluster as the paper plots it: its share of
// networks and the median entropy of each nybble.
type Summary struct {
	ID            int // 1-based, ordered by popularity
	Size          int
	Share         float64
	MedianEntropy []float64
}

// Summarize produces popularity-ordered cluster summaries from a k-means
// result over the given points.
func Summarize(points [][]float64, res Result) []Summary {
	if len(points) == 0 || res.K == 0 {
		return nil
	}
	dim := len(points[0])
	byCluster := make([][][]float64, res.K)
	for i, p := range points {
		c := res.Assign[i]
		byCluster[c] = append(byCluster[c], p)
	}
	sums := make([]Summary, 0, res.K)
	for c := 0; c < res.K; c++ {
		pts := byCluster[c]
		if len(pts) == 0 {
			continue
		}
		med := make([]float64, dim)
		col := make([]float64, len(pts))
		for d := 0; d < dim; d++ {
			for i, p := range pts {
				col[i] = p[d]
			}
			med[d] = stats.Median(col)
		}
		sums = append(sums, Summary{
			Size:          len(pts),
			Share:         float64(len(pts)) / float64(len(points)),
			MedianEntropy: med,
		})
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Size > sums[j].Size })
	for i := range sums {
		sums[i].ID = i + 1
	}
	return sums
}
