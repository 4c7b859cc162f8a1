package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/shard"
	"repro/internal/subspace"
)

// Every spec, linear vs X-tree: the k-NN backend must be invisible in
// the answers. OD values depend only on the neighbour set, and both
// backends implement the same exact-k-NN contract, so the minimal
// outlying subspaces must match byte for byte.
func TestBackendsAgree(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			lin, err := sp.Miner(core.BackendLinear, core.PolicyTSF)
			if err != nil {
				t.Fatal(err)
			}
			xt, err := sp.Miner(core.BackendXTree, core.PolicyTSF)
			if err != nil {
				t.Fatal(err)
			}
			if lin.Threshold() != xt.Threshold() {
				t.Fatalf("resolved thresholds diverge: linear %v, xtree %v", lin.Threshold(), xt.Threshold())
			}
			a, err := MinimalFingerprints(lin)
			if err != nil {
				t.Fatal(err)
			}
			b, err := MinimalFingerprints(xt)
			if err != nil {
				t.Fatal(err)
			}
			if d := Diff("linear", a, "xtree", b); d != "" {
				t.Fatalf("backends disagree:\n%s", d)
			}
		})
	}
}

// Every spec, all four policies: layer ordering decides how much work
// the search does, never what it answers. All policies must settle
// every subspace to the same verdict.
func TestPoliciesAgree(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			var ref []string
			for _, policy := range Policies() {
				m, err := sp.Miner(core.BackendLinear, policy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := MinimalFingerprints(m)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if d := Diff(core.PolicyTSF.String(), ref, policy.String(), got); d != "" {
					t.Fatalf("policy %v disagrees with %v:\n%s", policy, core.PolicyTSF, d)
				}
			}
		})
	}
}

// Every spec: the batched path (worker fan-out, pooled evaluators,
// recycled result storage) must be indistinguishable from the
// single-query path.
func TestBatchedMatchesSingle(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				m, err := sp.Miner(backend, core.PolicyTSF)
				if err != nil {
					t.Fatal(err)
				}
				single, err := MinimalFingerprints(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					batched, err := BatchMinimalFingerprints(m, workers)
					if err != nil {
						t.Fatal(err)
					}
					if d := Diff("single", single, "batched", batched); d != "" {
						t.Fatalf("backend %v workers %d: batched path diverged:\n%s", backend, workers, d)
					}
				}
			}
		})
	}
}

// Every spec, both backends, the three deterministic policies: the
// Miner's one search routine must equal core.Search field for field.
// The routine reuses an evaluator's resident query and scratch, so a
// buffer it forgets to reset would leak one point's LayerOrder,
// PerLayerOutlierFrac or Counters into the next — invisible to the
// minimal-set fingerprints. Every row is answered in a fixed scrambled
// order through QueryWith on one reused evaluator, so its scratch is
// always warm from another point, and compared with core.Search on a
// fresh working set over a second evaluator.
func TestSearchRoutineMatchesSearch(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, backend := range Backends() {
				for _, policy := range []core.Policy{core.PolicyTSF, core.PolicyBottomUp, core.PolicyTopDown} {
					m, err := sp.Miner(backend, policy)
					if err != nil {
						t.Fatal(err)
					}
					reused, err := m.NewWorkerEvaluator()
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := m.NewWorkerEvaluator()
					if err != nil {
						t.Fatal(err)
					}
					d := m.Dataset().Dim()
					for _, i := range rand.New(rand.NewSource(sp.Seed)).Perm(m.Dataset().N()) {
						got, err := m.QueryPointWith(reused, i)
						if err != nil {
							t.Fatal(err)
						}
						q := fresh.NewQueryForPoint(i)
						want, err := core.Search(q, d, m.Threshold(), m.Priors(), policy, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.SearchResult, *want) {
							t.Fatalf("%v/%v row %d: search routine diverged from Search:\n got  %+v\n want %+v",
								backend, policy, i, got.SearchResult, *want)
						}
						if got.ODEvaluations != q.Evaluations() {
							t.Fatalf("%v/%v row %d: %d OD evaluations, Search made %d",
								backend, policy, i, got.ODEvaluations, q.Evaluations())
						}
					}
				}
			}
		})
	}
}

// The batched path must also agree across policies — the combination
// matters because PolicyRandom draws each search's rng from the
// Miner's per-search sequence, so every batch item walks the lattice
// in an order of its own.
func TestBatchedPoliciesAgree(t *testing.T) {
	sp := DefaultSpecs()[0]
	var ref []string
	for _, policy := range Policies() {
		m, err := sp.Miner(core.BackendLinear, policy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BatchMinimalFingerprints(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if d := Diff("first-policy", ref, policy.String(), got); d != "" {
			t.Fatalf("batched policy %v diverged:\n%s", policy, d)
		}
	}
}

// Every spec, both backends, shard widths 1/2/7, both partitioners:
// the sharded scatter-gather engine must be invisible in the answers.
// The per-shard top-k merge reconstructs the exact global neighbour
// set (shard.Merge), so OD values — and with them every outlying
// verdict — must match the single-index miner byte for byte.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, sp := range DefaultSpecs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			ref, err := sp.Miner(core.BackendLinear, core.PolicyTSF)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MinimalFingerprints(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range Backends() {
				for _, widths := range ShardWidths() {
					for _, part := range Partitioners() {
						m, err := sp.ShardedMiner(backend, core.PolicyTSF, widths, part)
						if err != nil {
							t.Fatal(err)
						}
						if m.Threshold() != ref.Threshold() {
							t.Fatalf("%v/%d/%v: thresholds diverge: %v vs %v",
								backend, widths, part, m.Threshold(), ref.Threshold())
						}
						got, err := MinimalFingerprints(m)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%v shards=%d part=%v", backend, widths, part)
						if d := Diff("unsharded", want, name, got); d != "" {
							t.Fatalf("sharded engine diverged (%s):\n%s", name, d)
						}
					}
				}
			}
		})
	}
}

// All four policies through sharded engines: ordering must stay
// answer-invariant when the backend underneath is a scatter-gather.
func TestShardedPoliciesAgree(t *testing.T) {
	sp := DefaultSpecs()[0]
	ref, err := sp.Miner(core.BackendLinear, core.PolicyTSF)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MinimalFingerprints(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range Policies() {
		for _, part := range Partitioners() {
			m, err := sp.ShardedMiner(core.BackendLinear, policy, 7, part)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MinimalFingerprints(m)
			if err != nil {
				t.Fatal(err)
			}
			if d := Diff("unsharded-tsf", want, policy.String(), got); d != "" {
				t.Fatalf("sharded policy %v (%v) diverged:\n%s", policy, part, d)
			}
		}
	}
}

// The sharded engine under the batched path — the full stack the
// server runs when both features are on at once.
func TestShardedBatchedMatchesSingle(t *testing.T) {
	sp := DefaultSpecs()[1] // includes the learning phase
	m, err := sp.ShardedMiner(core.BackendLinear, core.PolicyTSF, 2, shard.HashPoint)
	if err != nil {
		t.Fatal(err)
	}
	single, err := MinimalFingerprints(m)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := BatchMinimalFingerprints(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff("single", single, "sharded-batched", batched); d != "" {
		t.Fatalf("sharded batch path diverged:\n%s", d)
	}
}

// Property test: shard.Merge is order-independent — any permutation
// of per-shard partials (and any order within one partial) merges to
// the same global top-k. This is the algebraic fact that makes the
// scatter-gather engine's answers independent of shard scheduling.
func TestShardMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		nParts := 1 + rng.Intn(5)
		var partials [][]knn.Neighbor
		idx := 0
		for p := 0; p < nParts; p++ {
			m := rng.Intn(k + 3)
			part := make([]knn.Neighbor, 0, m)
			for j := 0; j < m; j++ {
				part = append(part, knn.Neighbor{Index: idx, Dist: float64(rng.Intn(5))})
				idx++
			}
			partials = append(partials, part)
		}
		want := shard.Merge(k, partials...)
		perm := rng.Perm(len(partials))
		shuffled := make([][]knn.Neighbor, len(partials))
		for i, p := range perm {
			in := append([]knn.Neighbor(nil), partials[p]...)
			rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
			shuffled[i] = in
		}
		got := shard.Merge(k, shuffled...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge depends on order:\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	a := []subspace.Mask{subspace.New(0, 2), subspace.New(1)}
	b := []subspace.Mask{subspace.New(1), subspace.New(0, 2)} // same set, shuffled
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint is order-sensitive")
	}
	if Fingerprint(a) == Fingerprint([]subspace.Mask{subspace.New(1)}) {
		t.Fatal("fingerprint collides across different sets")
	}
	if Fingerprint(nil) != "" {
		t.Fatal("empty set fingerprint not empty")
	}
}

func TestDiff(t *testing.T) {
	if d := Diff("a", []string{"x", "y"}, "b", []string{"x", "y"}); d != "" {
		t.Fatalf("identical slices diff %q", d)
	}
	if d := Diff("a", []string{"x"}, "b", []string{"x", "y"}); d == "" {
		t.Fatal("length mismatch not reported")
	}
	if d := Diff("a", []string{"x", "y"}, "b", []string{"x", "z"}); d == "" {
		t.Fatal("content mismatch not reported")
	}
}
