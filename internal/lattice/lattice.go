// Package lattice tracks the evaluation status of every subspace in
// the 2^d - 1 lattice during a HOS-Miner search, and propagates the
// paper's two pruning rules (§3.1):
//
//   - downward pruning: a non-outlying subspace marks all of its
//     subsets non-outlying (Property 1);
//   - upward pruning: an outlying subspace marks all of its supersets
//     outlying (Property 2).
//
// The tracker also maintains the per-layer "remaining workload"
// counters that the paper's f_down(m) and f_up(m) fractions
// (Definition 3) are computed from.
package lattice

import (
	"fmt"

	"repro/internal/subspace"
)

// Status is the knowledge state of a single subspace.
type Status uint8

const (
	// Unknown: not yet evaluated and not implied by any pruning rule.
	Unknown Status = iota
	// OutlierEvaluated: OD was computed and found ≥ T.
	OutlierEvaluated
	// OutlierImplied: implied outlying by upward pruning from an
	// evaluated subset.
	OutlierImplied
	// NonOutlierEvaluated: OD was computed and found < T.
	NonOutlierEvaluated
	// NonOutlierImplied: implied non-outlying by downward pruning from
	// an evaluated superset.
	NonOutlierImplied
)

// String returns a short human-readable label.
func (s Status) String() string {
	switch s {
	case Unknown:
		return "unknown"
	case OutlierEvaluated:
		return "outlier(eval)"
	case OutlierImplied:
		return "outlier(implied)"
	case NonOutlierEvaluated:
		return "non-outlier(eval)"
	case NonOutlierImplied:
		return "non-outlier(implied)"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// IsOutlier reports whether the status marks the subspace outlying.
func (s Status) IsOutlier() bool { return s == OutlierEvaluated || s == OutlierImplied }

// IsNonOutlier reports whether the status marks the subspace
// non-outlying.
func (s Status) IsNonOutlier() bool { return s == NonOutlierEvaluated || s == NonOutlierImplied }

// Known reports whether the subspace has a definite status.
func (s Status) Known() bool { return s != Unknown }

// Tracker holds per-subspace status for a d-dimensional lattice.
//
// Memory: one byte per subspace, 2^d bytes total (16 MiB at the
// supported maximum d = 24).
type Tracker struct {
	d      int
	status []Status // indexed by mask; index 0 (empty set) unused

	unknownPerLayer []int64 // unknownPerLayer[m] = # unknown subspaces of card m
	unknownTotal    int64

	evaluations  int64 // # Mark* calls with evaluated=true
	impliedUp    int64 // # subspaces settled by upward propagation
	impliedDown  int64 // # subspaces settled by downward propagation
	outlierCount int64 // # subspaces currently known outlying
}

// NewTracker creates a tracker for a d-dimensional lattice with every
// non-empty subspace Unknown.
func NewTracker(d int) (*Tracker, error) {
	if d < 1 || d > subspace.MaxDim {
		return nil, fmt.Errorf("lattice: dimensionality %d out of range [1,%d]", d, subspace.MaxDim)
	}
	t := &Tracker{
		d:               d,
		status:          make([]Status, 1<<uint(d)),
		unknownPerLayer: make([]int64, d+1),
	}
	for m := 1; m <= d; m++ {
		t.unknownPerLayer[m] = subspace.Binomial(d, m)
		t.unknownTotal += t.unknownPerLayer[m]
	}
	return t, nil
}

// Dim returns the dimensionality of the tracked lattice.
func (t *Tracker) Dim() int { return t.d }

// Reset returns the tracker to the all-Unknown state for the same
// dimensionality, reusing its allocations. It is the pooled-reuse
// path: one tracker per worker, Reset per query, instead of a fresh
// 2^d status array per query.
func (t *Tracker) Reset() {
	clear(t.status)
	t.unknownTotal = 0
	t.unknownPerLayer[0] = 0
	for m := 1; m <= t.d; m++ {
		t.unknownPerLayer[m] = subspace.Binomial(t.d, m)
		t.unknownTotal += t.unknownPerLayer[m]
	}
	t.evaluations, t.impliedUp, t.impliedDown, t.outlierCount = 0, 0, 0, 0
}

// Status returns the current status of subspace s.
func (t *Tracker) Status(s subspace.Mask) Status {
	t.check(s)
	return t.status[s]
}

// check panics on masks outside the lattice — always a programming
// error in this library.
func (t *Tracker) check(s subspace.Mask) {
	if s.IsEmpty() || !s.SubsetOf(subspace.Full(t.d)) {
		panic(fmt.Sprintf("lattice: mask %v outside %d-dimensional lattice", s, t.d))
	}
}

func (t *Tracker) set(s subspace.Mask, st Status) {
	if t.status[s] == Unknown {
		m := s.Card()
		t.unknownPerLayer[m]--
		t.unknownTotal--
	}
	t.status[s] = st
}

// MarkOutlier records that subspace s is outlying (OD ≥ T) and applies
// upward pruning: every superset becomes OutlierImplied. evaluated
// distinguishes a direct OD evaluation from an implication (the
// tracker is also usable to replay externally derived facts).
// Marking an already-known subspace is a no-op (statuses never
// conflict in a correct search; a conflicting mark panics, as it can
// only arise from a broken OD oracle violating monotonicity).
func (t *Tracker) MarkOutlier(s subspace.Mask, evaluated bool) {
	t.check(s)
	if cur := t.status[s]; cur.Known() {
		if cur.IsNonOutlier() {
			panic(fmt.Sprintf("lattice: subspace %v already non-outlying, cannot mark outlying (monotonicity violated)", s))
		}
		return
	}
	if evaluated {
		t.set(s, OutlierEvaluated)
		t.evaluations++
	} else {
		t.set(s, OutlierImplied)
		t.impliedUp++
	}
	t.outlierCount++
	t.propagateUp(s)
}

// MarkNonOutlier records that subspace s is non-outlying (OD < T) and
// applies downward pruning: every subset becomes NonOutlierImplied.
func (t *Tracker) MarkNonOutlier(s subspace.Mask, evaluated bool) {
	t.check(s)
	if cur := t.status[s]; cur.Known() {
		if cur.IsOutlier() {
			panic(fmt.Sprintf("lattice: subspace %v already outlying, cannot mark non-outlying (monotonicity violated)", s))
		}
		return
	}
	if evaluated {
		t.set(s, NonOutlierEvaluated)
		t.evaluations++
	} else {
		t.set(s, NonOutlierImplied)
		t.impliedDown++
	}
	t.propagateDown(s)
}

// propagateUp marks all proper supersets of s OutlierImplied. The
// recursion adds one dimension at a time and stops at subspaces that
// are already known outlying, so each lattice edge is crossed at most
// once over the lifetime of the tracker.
func (t *Tracker) propagateUp(s subspace.Mask) {
	full := subspace.Full(t.d)
	free := full.Without(s)
	free.EachDim(func(dim int) {
		sup := s.With(dim)
		if t.status[sup].IsOutlier() {
			return // this branch already settled
		}
		if t.status[sup].IsNonOutlier() {
			panic(fmt.Sprintf("lattice: monotonicity violated at %v ⊃ %v", sup, s))
		}
		t.set(sup, OutlierImplied)
		t.impliedUp++
		t.outlierCount++
		t.propagateUp(sup)
	})
}

// propagateDown marks all proper non-empty subsets of s
// NonOutlierImplied, with the same memoized early exit as
// propagateUp.
func (t *Tracker) propagateDown(s subspace.Mask) {
	if s.Card() <= 1 {
		return
	}
	s.EachDim(func(dim int) {
		sub := s.Drop(dim)
		if t.status[sub].IsNonOutlier() {
			return
		}
		if t.status[sub].IsOutlier() {
			panic(fmt.Sprintf("lattice: monotonicity violated at %v ⊂ %v", sub, s))
		}
		t.set(sub, NonOutlierImplied)
		t.impliedDown++
		t.propagateDown(sub)
	})
}

// UnknownInLayer returns how many cardinality-m subspaces are still
// Unknown.
func (t *Tracker) UnknownInLayer(m int) int64 {
	if m < 1 || m > t.d {
		return 0
	}
	return t.unknownPerLayer[m]
}

// Done reports whether every subspace has a definite status.
func (t *Tracker) Done() bool { return t.unknownTotal == 0 }

// CdownLeft returns Σ dim(s) over Unknown subspaces with dim(s) < m —
// the numerator of the paper's f_down(m).
func (t *Tracker) CdownLeft(m int) int64 {
	var sum int64
	for i := 1; i < m && i <= t.d; i++ {
		sum += t.unknownPerLayer[i] * int64(i)
	}
	return sum
}

// CupLeft returns Σ dim(s) over Unknown subspaces with dim(s) > m —
// the numerator of the paper's f_up(m).
func (t *Tracker) CupLeft(m int) int64 {
	var sum int64
	for i := m + 1; i <= t.d; i++ {
		sum += t.unknownPerLayer[i] * int64(i)
	}
	return sum
}

// EachUnknownInLayer calls fn for every Unknown subspace of
// cardinality m, in ascending mask order, stopping early if fn
// returns false. The snapshot semantics matter: fn may mark subspaces
// (including upcoming ones); the iterator re-checks status before
// each call, so subspaces settled mid-iteration are skipped.
func (t *Tracker) EachUnknownInLayer(m int, fn func(subspace.Mask) bool) {
	subspace.EachOfDim(t.d, m, func(s subspace.Mask) bool {
		if t.status[s] != Unknown {
			return true
		}
		return fn(s)
	})
}

// Outliers returns every subspace currently known to be outlying
// (evaluated or implied), sorted by ascending cardinality then mask.
func (t *Tracker) Outliers() []subspace.Mask {
	return t.AppendOutliers(make([]subspace.Mask, 0, t.outlierCount))
}

// AppendOutliers appends every known-outlying subspace to dst in the
// canonical (ascending cardinality, then ascending mask) order —
// exactly what SortMasks would produce — and returns the extended
// slice. It is closure- and sort-free: a counting pass over the dense
// status array bins outliers by cardinality, a placement pass writes
// them in order. With a large enough dst it performs no allocation,
// which is what the zero-alloc query path relies on.
func (t *Tracker) AppendOutliers(dst []subspace.Mask) []subspace.Mask {
	var perCard [subspace.MaxDim + 1]int
	total := 0
	for v := 1; v < len(t.status); v++ {
		if t.status[v].IsOutlier() {
			perCard[subspace.Mask(v).Card()]++
			total++
		}
	}
	base := len(dst)
	need := base + total
	if cap(dst) < need {
		grown := make([]subspace.Mask, need)
		copy(grown, dst)
		dst = grown[:base]
	}
	dst = dst[:need]
	var offsets [subspace.MaxDim + 1]int
	off := base
	for c := 1; c <= t.d; c++ {
		offsets[c] = off
		off += perCard[c]
	}
	for v := 1; v < len(t.status); v++ {
		if t.status[v].IsOutlier() {
			c := subspace.Mask(v).Card()
			dst[offsets[c]] = subspace.Mask(v)
			offsets[c]++
		}
	}
	return dst
}

// Counters is a snapshot of the tracker's work accounting.
type Counters struct {
	Evaluations int64 // subspaces settled by direct OD evaluation
	ImpliedUp   int64 // settled by upward pruning
	ImpliedDown int64 // settled by downward pruning
	Outliers    int64 // currently known outlying
	Unknown     int64 // still unknown
	Total       int64 // 2^d - 1
}

// Counters returns the current work accounting.
func (t *Tracker) Counters() Counters {
	return Counters{
		Evaluations: t.evaluations,
		ImpliedUp:   t.impliedUp,
		ImpliedDown: t.impliedDown,
		Outliers:    t.outlierCount,
		Unknown:     t.unknownTotal,
		Total:       subspace.TotalSubspaces(t.d),
	}
}
