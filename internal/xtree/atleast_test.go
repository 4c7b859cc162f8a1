package xtree

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// gridRows draws n rows of d columns: on levels integer grid levels
// (ties and duplicate rows galore), or Gaussian when levels is 0.
func gridRows(rng *rand.Rand, n, d, levels int) [][]float64 {
	if levels == 0 {
		return randomRows(rng, n, d)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(levels))
		}
	}
	return rows
}

// treeVariants returns the three ways a serving tree comes to be over
// rows: Build, Append onto a tree over a prefix (unpack, insert,
// repack), and Decode of an encoded tree. Append and Decode compute
// their MBRs in code of their own, and the decision's lower bound
// needs every box to contain its rows exactly.
func treeVariants(t *testing.T, rows [][]float64, metric vector.Metric, cfg Config) []namedTree {
	t.Helper()
	ds := datasetOf(t, rows, 0)
	built, err := Build(ds, metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := len(rows) * 2 / 3
	base, err := Build(datasetOf(t, rows[:prefix], 0), metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := base.Append(ds)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(encodeTree(t, built)), ds)
	if err != nil {
		t.Fatal(err)
	}
	return []namedTree{{"built", built}, {"appended", appended}, {"decoded", decoded}}
}

type namedTree struct {
	name string
	tree *Tree
}

// checkDecision compares xs.AtLeast with the exact comparison
// SumDistances(KNN) >= T at each T, and requires the decision to
// examine no more rows than the exact search. It returns the number
// of comparisons made.
func checkDecision(t *testing.T, xs *Searcher, point []float64, s subspace.Mask, k, exclude int, ts func(exact float64) []float64) int {
	t.Helper()
	before := xs.Stats().PointsExamined
	exact := knn.SumDistances(xs.KNN(point, s, k, exclude))
	exactWork := xs.Stats().PointsExamined - before
	checks := 0
	for _, T := range ts(exact) {
		before = xs.Stats().PointsExamined
		got := xs.AtLeast(point, s, k, exclude, T)
		if work := xs.Stats().PointsExamined - before; work > exactWork {
			t.Fatalf("s=%v k=%d exclude=%d T=%v: decision examined %d rows, exact search %d",
				s, k, exclude, T, work, exactWork)
		}
		if want := exact >= T; got != want {
			t.Fatalf("s=%v k=%d exclude=%d point=%v: AtLeast(T=%v) = %v, but Σ k-NN = %v",
				s, k, exclude, point, T, got, exact)
		}
		checks++
	}
	return checks
}

// aroundOD is the boundary: T on the attained OD and one ulp either
// side of it.
func aroundOD(exact float64) []float64 {
	return []float64{math.Nextafter(exact, math.Inf(-1)), exact, math.Nextafter(exact, math.Inf(1))}
}

// TestAtLeastMatchesSum: the X-tree's decision equals the exact
// comparison Σ k-NN distances ≥ T bit for bit, over L2, L1 and LInf;
// grid data (2–7 levels) and Gaussian data; N 40–939, d 2–7, k 1–6;
// member and external queries; built, appended and decoded trees; and
// T on the attained OD, one ulp either side of it, OD/2, 2·OD and a
// random value. A mismatch is a defect in the decision, never in the
// comparison.
func TestAtLeastMatchesSum(t *testing.T) {
	shapes := []struct{ n, d, levels int }{
		{40, 2, 2}, {97, 3, 3}, {180, 4, 0}, {260, 5, 4},
		{333, 6, 5}, {512, 7, 7}, {700, 3, 6}, {939, 4, 0},
	}
	rng := rand.New(rand.NewSource(27))
	checks := 0
	for _, sh := range shapes {
		for _, metric := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
			rows := gridRows(rng, sh.n, sh.d, sh.levels)
			cfg := Config{MaxEntries: 4 + rng.Intn(13)}
			for _, v := range treeVariants(t, rows, metric, cfg) {
				name := fmt.Sprintf("n%d-d%d-levels%d-%v-%s", sh.n, sh.d, sh.levels, metric, v.name)
				xs := NewSearcher(v.tree)
				t.Run(name, func(t *testing.T) {
					for q := 0; q < 25; q++ {
						point, exclude := gridRows(rng, 1, sh.d, sh.levels)[0], -1
						if q%2 == 0 {
							exclude = rng.Intn(sh.n)
							point = rows[exclude]
						}
						s := subspace.Mask(rng.Uint32()) & subspace.Full(sh.d)
						if s.IsEmpty() {
							s = subspace.Full(sh.d)
						}
						k := 1 + rng.Intn(6)
						random := rng.Float64()
						checks += checkDecision(t, xs, point, s, k, exclude, func(exact float64) []float64 {
							return append(aroundOD(exact), exact/2, 2*exact, random*2*exact)
						})
					}
				})
			}
		}
	}
	t.Logf("%d decisions matched the exact sum", checks)
}

// TestAtLeastEdgeCases: inputs where the bounds must stand aside. A
// NaN query coordinate makes every distance NaN while MINDIST stays
// finite; a k above the rows available means the answer holds fewer
// than k distances; a NaN T fails every comparison; and the
// degenerate inputs KNN answers with nothing sum to 0.
func TestAtLeastEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := gridRows(rng, 60, 3, 0)
	tree, err := Build(datasetOf(t, rows, 0), vector.L2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	xs := NewSearcher(tree)
	full := subspace.Full(3)
	withSlack := func(exact float64) []float64 { return append(aroundOD(exact), exact/2, 0, -1) }
	checkDecision(t, xs, []float64{math.NaN(), 0, 0}, full, 3, -1, withSlack)
	checkDecision(t, xs, []float64{math.NaN(), 0, 0}, subspace.New(1, 2), 3, -1, withSlack)
	// Eight copies of one far row end the traversal: their boxes'
	// MINDIST equals their distance, so a lower bound that counted k
	// terms where only k−1 rows remain would overshoot the exact sum.
	far := gridRows(rng, 52, 3, 0)
	for range 8 {
		far = append(far, []float64{500, 500, 500})
	}
	farTree, err := Build(datasetOf(t, far, 0), vector.L2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSearcher(farTree)
	checkDecision(t, fs, far[7], full, 60, 7, withSlack)  // 59 rows for k = 60
	checkDecision(t, fs, far[7], full, 61, -1, withSlack) // 60 rows for k = 61
	checkDecision(t, xs, rows[7], full, 4, 7, func(float64) []float64 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	})
	for _, c := range []struct {
		s subspace.Mask
		k int
	}{{subspace.Empty, 3}, {full, 0}} {
		for _, T := range []float64{-1, 0, 1} {
			if got := xs.AtLeast(rows[0], c.s, c.k, 0, T); got != (0 >= T) {
				t.Fatalf("s=%v k=%d: AtLeast(T=%v) = %v on an empty answer", c.s, c.k, T, got)
			}
		}
	}
}

// atLeastCase is one decoded FuzzAtLeastMatchesSum input.
type atLeastCase struct {
	rows   [][]float64
	points [][]float64
	metric vector.Metric
	cfg    Config
	s      subspace.Mask
	k      int
}

// decodeAtLeastCase turns fuzz bytes into a small tie-heavy case: d in
// 1–6 columns on 2–5 integer grid levels, N in 8–135 rows with the
// last quarter copies of the first, node capacity 4–11 so the tree has
// several levels, a metric, a non-empty subspace, k in 1–8, and three
// external points on the same grid. Once the input runs out, bytes
// come from a generator seeded by the whole input.
func decodeAtLeastCase(data []byte) atLeastCase {
	h := fnv.New64a()
	h.Write(data)
	state := h.Sum64()
	next := func() byte {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return b
		}
		state = state*6364136223846793005 + 1442695040888963407
		return byte(state >> 56)
	}
	d := 1 + int(next()%6)
	levels := 2 + int(next()%4)
	n := 8 + int(next()%128)
	c := atLeastCase{
		metric: []vector.Metric{vector.L2, vector.L1, vector.LInf}[next()%3],
		cfg:    Config{MaxEntries: 4 + int(next()%8)},
		s:      subspace.Mask(next()) & subspace.Full(d),
		k:      1 + int(next()%8),
	}
	if c.s.IsEmpty() {
		c.s = subspace.Full(d)
	}
	cell := func() float64 { return float64(int(next()) % levels) }
	copies := n - n/4
	c.rows = make([][]float64, n)
	for i := range c.rows {
		if i >= copies {
			c.rows[i] = c.rows[i-copies]
			continue
		}
		c.rows[i] = make([]float64, d)
		for j := range c.rows[i] {
			c.rows[i][j] = cell()
		}
	}
	c.points = make([][]float64, 3)
	for i := range c.points {
		c.points[i] = make([]float64, d)
		for j := range c.points[i] {
			c.points[i][j] = cell()
		}
	}
	return c
}

// FuzzAtLeastMatchesSum: on decoded tie-heavy data, for every row as a
// member query and each external point, the decision at T on the
// attained OD and one ulp either side of it equals the exact sum's
// comparison.
func FuzzAtLeastMatchesSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 60, 0, 0, 3, 4})
	f.Add([]byte{5, 3, 127, 2, 7, 255, 7})
	f.Add([]byte("duplicate rows on a coarse grid"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeAtLeastCase(data)
		tree, err := Build(datasetOf(t, c.rows, 0), c.metric, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		xs := NewSearcher(tree)
		for i, row := range c.rows {
			checkDecision(t, xs, row, c.s, c.k, i, aroundOD)
		}
		for _, p := range c.points {
			checkDecision(t, xs, p, c.s, c.k, -1, aroundOD)
		}
	})
}

// TestMinDistNeverExceedsDistance pins the lemma the decision's lower
// bound rests on: a box's MINDIST never exceeds the computed distance
// of any row inside it, bit for bit (L2 compared squared, as the
// traversal does). Queries one unit from a row in one dimension and a
// sub-ulp step away in two others make sums of the same terms round
// apart when taken in different orders, so a MINDIST or a distance
// kernel whose summation order differs from the other's fails here.
func TestMinDistNeverExceedsDistance(t *testing.T) {
	// 1 + x rounds to 1 but x + x + 1 does not: x is between a quarter
	// and a half of an ulp of 1, for L2 as a square and for L1 as is.
	sq := math.Sqrt(6) / (1 << 28)
	lin := 1.0 / (1 << 53)
	for _, x := range []float64{sq * sq, lin} {
		one := 1.0
		if (one+x)+x == (x+x)+one {
			t.Fatalf("step %v does not make summation order observable", x)
		}
	}
	rng := rand.New(rand.NewSource(9))
	const d = 4
	origin := make([]float64, d)
	rows := gridRows(rng, 40, d, 0)
	for range 8 {
		rows = append(rows, origin) // degenerate leaves: MINDIST is the distance
	}
	var queries [][]float64
	for _, step := range []float64{sq, lin} {
		for one := 0; one < d; one++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = step
			}
			q[one] = 1
			queries = append(queries, q)
		}
	}
	queries = append(queries, gridRows(rng, 20, d, 0)...)
	for _, metric := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
		tree, err := Build(datasetOf(t, rows, 0), metric, Config{MaxEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		a := &tree.ar
		for _, s := range subspace.All(d) {
			if s.IsEmpty() {
				continue
			}
			dims := s.AppendDims(nil)
			for _, q := range queries {
				for id := range a.nodes {
					if !a.nodes[id].isLeaf() {
						continue
					}
					box := a.nodeMBR(int32(id))
					var md float64
					if metric == vector.L2 {
						md = minDistSqL2Dims(dims, q, box.Min, box.Max)
					} else {
						md = minDistDims(metric, dims, q, box.Min, box.Max)
					}
					for _, idx := range a.rows(int32(id)) {
						row := tree.ds.Point(int(idx))
						var dist float64
						if metric == vector.L2 {
							dist = vector.SqDistL2Dims(dims, q, row)
						} else {
							dist = vector.DistDims(metric, dims, q, row)
						}
						if md > dist {
							t.Fatalf("%v s=%v q=%v: MINDIST %v exceeds row %d's distance %v", metric, s, q, md, idx, dist)
						}
					}
				}
			}
		}
	}
}
