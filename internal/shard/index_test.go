package shard

import (
	"testing"

	"repro/internal/vector"
)

// TestIndexKindChoosesBackend pins the one index decision: xtree
// always builds a tree, linear never does, and auto switches at
// exactly AutoXTreeThreshold rows.
func TestIndexKindChoosesBackend(t *testing.T) {
	for _, tc := range []struct {
		kind IndexKind
		n    int
		tree bool
	}{
		{IndexXTree, 20, true},
		{IndexLinear, AutoXTreeThreshold, false},
		{IndexAuto, AutoXTreeThreshold - 1, false},
		{IndexAuto, AutoXTreeThreshold, true},
	} {
		x, err := NewIndex(randomDataset(t, tc.n, 3, 1), vector.L2, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		if got := x.tree != nil; got != tc.tree {
			t.Fatalf("%v over %d rows: tree = %v, want %v", tc.kind, tc.n, got, tc.tree)
		}
	}
	for kind, want := range map[IndexKind]string{
		IndexAuto: "auto", IndexLinear: "linear", IndexXTree: "xtree", IndexKind(9): "IndexKind(9)",
	} {
		if got := kind.String(); got != want {
			t.Fatalf("IndexKind(%d).String() = %q, want %q", uint8(kind), got, want)
		}
	}
}
