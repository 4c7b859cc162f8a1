package baseline

import (
	"fmt"
	"sort"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Scored pairs a point index with an outlier score (higher = more
// outlying).
type Scored struct {
	Index int
	Score float64
}

// TopNKNNOutliers implements Ramaswamy et al. [8] restricted to
// subspace s: rank points by the distance to their k-th nearest
// neighbour and return the top n. Ties are broken by ascending index.
func TopNKNNOutliers(ds *vector.Dataset, searcher knn.Searcher, s subspace.Mask, k, n int) ([]Scored, error) {
	if err := checkDetectorArgs(ds, searcher, s, k); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("baseline: n = %d", n)
	}
	scored := make([]Scored, ds.N())
	for i := 0; i < ds.N(); i++ {
		nbs := searcher.KNN(ds.Point(i), s, k, i)
		var kth float64
		if len(nbs) > 0 {
			kth = nbs[len(nbs)-1].Dist
		}
		scored[i] = Scored{Index: i, Score: kth}
	}
	sortScoredDesc(scored)
	if n > len(scored) {
		n = len(scored)
	}
	return scored[:n], nil
}

// LOF computes the Local Outlier Factor of Breunig et al. [3] for
// every point in subspace s with neighbourhood size minPts. Scores
// near 1 are inliers; substantially above 1 are outliers.
func LOF(ds *vector.Dataset, searcher knn.Searcher, s subspace.Mask, minPts int) ([]float64, error) {
	if err := checkDetectorArgs(ds, searcher, s, minPts); err != nil {
		return nil, err
	}
	n := ds.N()

	// Pass 1: k-NN sets, k-distances. KNN results alias the searcher's
	// scratch, so each set is copied before the next query overwrites it.
	neighbors := make([][]knn.Neighbor, n)
	kDist := make([]float64, n)
	for i := 0; i < n; i++ {
		nbs := append([]knn.Neighbor(nil), searcher.KNN(ds.Point(i), s, minPts, i)...)
		neighbors[i] = nbs
		if len(nbs) > 0 {
			kDist[i] = nbs[len(nbs)-1].Dist
		}
	}

	// Pass 2: local reachability density.
	// lrd(p) = 1 / mean_{o ∈ kNN(p)} reach-dist(p, o),
	// reach-dist(p, o) = max(kDist(o), dist(p, o)).
	lrd := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for _, nb := range neighbors[i] {
			rd := nb.Dist
			if kDist[nb.Index] > rd {
				rd = kDist[nb.Index]
			}
			sum += rd
		}
		if len(neighbors[i]) == 0 || sum == 0 {
			// Degenerate (duplicates): infinite density convention →
			// mark with 0 so the LOF ratio below treats it specially.
			lrd[i] = 0
			continue
		}
		lrd[i] = float64(len(neighbors[i])) / sum
	}

	// Pass 3: LOF(p) = mean_{o ∈ kNN(p)} lrd(o) / lrd(p).
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if lrd[i] == 0 {
			// Infinite own density: deep inside a duplicate cluster.
			out[i] = 1
			continue
		}
		var sum float64
		count := 0
		for _, nb := range neighbors[i] {
			if lrd[nb.Index] == 0 {
				// Neighbour with infinite density dominates: treat the
				// ratio as 1 (same-cluster convention).
				sum++
			} else {
				sum += lrd[nb.Index] / lrd[i]
			}
			count++
		}
		if count == 0 {
			out[i] = 1
			continue
		}
		out[i] = sum / float64(count)
	}
	return out, nil
}

func checkDetectorArgs(ds *vector.Dataset, searcher knn.Searcher, s subspace.Mask, k int) error {
	if ds == nil {
		return fmt.Errorf("baseline: nil dataset")
	}
	if searcher == nil {
		return fmt.Errorf("baseline: nil searcher")
	}
	if s.IsEmpty() {
		return fmt.Errorf("baseline: empty subspace")
	}
	if k < 1 || k >= ds.N() {
		return fmt.Errorf("baseline: k = %d out of [1,%d)", k, ds.N())
	}
	return nil
}

func sortScoredDesc(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].Index < s[j].Index
	})
}
