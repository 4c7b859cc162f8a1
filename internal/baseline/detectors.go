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
