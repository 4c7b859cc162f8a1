package core

import "repro/internal/subspace"

// MinimalSubspaces implements the §3.4 result refinement filter: from
// the full set of outlying subspaces, keep only those of the lowest
// possible dimensionality — a subspace is discarded if it is a
// superset of a previously selected one. The paper's example: from
// {[1,3], [2,4], [1,2,3], [1,2,4], [1,3,4], [2,3,4], [1,2,3,4]} the
// filter returns {[1,3], [2,4]}.
//
// The input need not be sorted; the output is canonically sorted
// (ascending cardinality, then mask). The input slice is not
// modified.
func MinimalSubspaces(outlying []subspace.Mask) []subspace.Mask {
	if len(outlying) == 0 {
		return nil
	}
	sorted := append([]subspace.Mask(nil), outlying...)
	subspace.SortMasks(sorted)
	var kept []subspace.Mask
	for _, s := range sorted {
		// coveredBy uses ⊇ (including equality), so duplicates of an
		// already-kept subspace are skipped too.
		if !coveredBy(s, kept) {
			kept = append(kept, s)
		}
	}
	return kept
}

// appendMinimalSorted is the scratch-reusing core of MinimalSubspaces
// for input that is already canonically sorted (ascending cardinality,
// then mask — the order lattice.Tracker.AppendOutliers produces): it
// appends the kept subspaces to dst and returns the extended slice,
// allocating only when dst lacks capacity.
func appendMinimalSorted(dst []subspace.Mask, sorted []subspace.Mask) []subspace.Mask {
	base := len(dst)
	for _, s := range sorted {
		if !coveredBy(s, dst[base:]) {
			dst = append(dst, s)
		}
	}
	return dst
}

// coveredBy reports whether s is a (proper or equal) superset of any
// kept subspace.
func coveredBy(s subspace.Mask, kept []subspace.Mask) bool {
	for _, k := range kept {
		if s.SupersetOf(k) {
			return true
		}
	}
	return false
}

// ExpandMinimal is the inverse view of the filter: given the minimal
// outlying subspaces and the space dimensionality, it enumerates the
// full outlying set (every superset of any minimal subspace),
// canonically sorted. Only tests call it: TestSearchMatchesNaiveAllPolicies
// expands the search's minimal set with it to confirm the filter loses
// no information.
func ExpandMinimal(minimal []subspace.Mask, d int) []subspace.Mask {
	seen := make(map[subspace.Mask]bool)
	for _, s := range minimal {
		seen[s] = true
		subspace.Supersets(d, s, func(sup subspace.Mask) bool {
			seen[sup] = true
			return true
		})
	}
	out := make([]subspace.Mask, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	subspace.SortMasks(out)
	return out
}
