package evolutionary

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/subspace"
)

// Wildcard marks an unconstrained dimension in an Individual; a
// constrained dimension j stores rangeIndex+1 (1..φ), matching the
// "don't care" string encoding of Aggarwal & Yu.
const Wildcard uint8 = 0

// Individual encodes one k-dimensional grid cell as a length-d string
// over {Wildcard, 1..φ}.
type Individual []uint8

// Constrained returns the number of non-wildcard positions.
func (ind Individual) Constrained() int {
	c := 0
	for _, v := range ind {
		if v != Wildcard {
			c++
		}
	}
	return c
}

// Mask returns the subspace of constrained dimensions.
func (ind Individual) Mask() subspace.Mask {
	var m subspace.Mask
	for j, v := range ind {
		if v != Wildcard {
			m = m.With(j)
		}
	}
	return m
}

// Clone copies the individual.
func (ind Individual) Clone() Individual { return append(Individual(nil), ind...) }

// key renders a map key for deduplication/caching.
func (ind Individual) key() string { return string(ind) }

// Config parameterises the genetic search.
type Config struct {
	// Phi is the equi-depth grid resolution (default 10).
	Phi int
	// TargetDim is k: the number of constrained dimensions of every
	// individual (default 3, clamped to [1, d]).
	TargetDim int
	// Population is the GA population size p (default 50).
	Population int
	// Generations bounds the GA iterations (default 100).
	Generations int
	// MutationRate is the per-individual mutation probability
	// (default 0.25).
	MutationRate float64
	// KeepBest is how many distinct sparsest cells to report (default
	// 10).
	KeepBest int
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) normalize(d int) error {
	if c.Phi == 0 {
		c.Phi = 10
	}
	if c.TargetDim == 0 {
		c.TargetDim = 3
	}
	if c.TargetDim < 1 {
		return fmt.Errorf("evolutionary: TargetDim = %d", c.TargetDim)
	}
	if c.TargetDim > d {
		c.TargetDim = d
	}
	if c.Population == 0 {
		c.Population = 50
	}
	if c.Population < 4 {
		return fmt.Errorf("evolutionary: Population = %d too small", c.Population)
	}
	if c.Generations == 0 {
		c.Generations = 100
	}
	if c.Generations < 1 {
		return fmt.Errorf("evolutionary: Generations = %d", c.Generations)
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.25
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("evolutionary: MutationRate = %v", c.MutationRate)
	}
	if c.KeepBest == 0 {
		c.KeepBest = 10
	}
	if c.KeepBest < 1 {
		return fmt.Errorf("evolutionary: KeepBest = %d", c.KeepBest)
	}
	return nil
}

// Cell is one discovered sparse cell.
type Cell struct {
	Individual Individual
	Sparsity   float64
	Points     []int // dataset points inside the cell
}

// Result is the outcome of a Search.
type Result struct {
	// Cells are the KeepBest distinct sparsest NON-EMPTY cells found,
	// ascending by sparsity (most negative first). Empty cells guide
	// the GA (they are legitimate minima of the sparsity coefficient)
	// but hold no points and therefore identify no outliers, so they
	// are excluded from the report — matching Aggarwal & Yu's use of
	// the method, where the outliers are the points inside the
	// discovered sparse cells.
	Cells []Cell
	// Evaluations counts fitness (sparsity) computations, the GA's
	// work unit.
	Evaluations int64
	// Generations actually run.
	Generations int
}

// Searcher runs the Aggarwal–Yu genetic search over a Grid.
type Searcher struct {
	grid *Grid
	cfg  Config
	rng  *rand.Rand

	countCache  map[string]int
	evaluations int64
}

// NewSearcher validates the configuration and prepares a Searcher.
func NewSearcher(grid *Grid, cfg Config) (*Searcher, error) {
	if grid == nil {
		return nil, fmt.Errorf("evolutionary: nil grid")
	}
	if err := cfg.normalize(grid.Dim()); err != nil {
		return nil, err
	}
	if cfg.Phi != grid.Phi() {
		return nil, fmt.Errorf("evolutionary: config phi %d != grid phi %d", cfg.Phi, grid.Phi())
	}
	return &Searcher{
		grid:       grid,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		countCache: make(map[string]int),
	}, nil
}

// Search runs the GA and returns the sparsest non-empty cells.
func (s *Searcher) Search() *Result {
	pop := s.initialPopulation()
	best := newBestSet(s.cfg.KeepBest)
	var elite Individual
	eliteFit := math.Inf(1)
	consider := func(ind Individual) {
		fit := s.fitness(ind)
		if fit < eliteFit {
			elite, eliteFit = ind.Clone(), fit
		}
		if s.count(ind) > 0 {
			best.offer(ind, fit)
		}
	}
	for _, ind := range pop {
		consider(ind)
	}

	for gen := 0; gen < s.cfg.Generations; gen++ {
		next := make([]Individual, 0, len(pop))
		// Elitism: carry the overall best forward (possibly an empty
		// cell — it still pulls the population toward sparse regions).
		if elite != nil {
			next = append(next, elite.Clone())
		}
		for len(next) < len(pop) {
			a := s.selectParent(pop)
			b := s.selectParent(pop)
			child := s.crossover(a, b)
			if s.rng.Float64() < s.cfg.MutationRate {
				s.mutate(child)
			}
			next = append(next, child)
			consider(child)
		}
		pop = next
	}

	cells := make([]Cell, 0, s.cfg.KeepBest)
	for _, e := range best.sorted() {
		cells = append(cells, Cell{
			Individual: e.ind,
			Sparsity:   e.fit,
			Points:     s.grid.PointsIn(e.ind),
		})
	}
	return &Result{Cells: cells, Evaluations: s.evaluations, Generations: s.cfg.Generations}
}

// count is the (cached) cell occupancy — the expensive O(N·d) scan.
func (s *Searcher) count(ind Individual) int {
	k := ind.key()
	if v, ok := s.countCache[k]; ok {
		return v
	}
	s.evaluations++
	v := s.grid.Count(ind)
	s.countCache[k] = v
	return v
}

// fitness is the sparsity coefficient derived from the cached count;
// lower is better.
func (s *Searcher) fitness(ind Individual) float64 {
	return s.grid.SparsityFromCount(s.count(ind), ind.Constrained())
}

func (s *Searcher) initialPopulation() []Individual {
	pop := make([]Individual, s.cfg.Population)
	for i := range pop {
		pop[i] = s.randomIndividual()
	}
	return pop
}

func (s *Searcher) randomIndividual() Individual {
	d := s.grid.Dim()
	ind := make(Individual, d)
	perm := s.rng.Perm(d)
	for _, j := range perm[:s.cfg.TargetDim] {
		ind[j] = uint8(1 + s.rng.Intn(s.cfg.Phi))
	}
	return ind
}

// selectParent uses 2-way tournament selection on sparsity (lower
// wins) — a simple, rank-robust stand-in for the paper's
// probabilistic selection.
func (s *Searcher) selectParent(pop []Individual) Individual {
	a := pop[s.rng.Intn(len(pop))]
	b := pop[s.rng.Intn(len(pop))]
	if s.fitness(a) <= s.fitness(b) {
		return a
	}
	return b
}

// crossover recombines two parents position-wise and repairs the
// child to exactly TargetDim constrained dimensions (the paper's
// "optimized recombination" keeps solutions in the feasible set; we
// repair greedily at random).
func (s *Searcher) crossover(a, b Individual) Individual {
	d := s.grid.Dim()
	child := make(Individual, d)
	for j := 0; j < d; j++ {
		if s.rng.Float64() < 0.5 {
			child[j] = a[j]
		} else {
			child[j] = b[j]
		}
	}
	s.repair(child)
	return child
}

// repair enforces exactly TargetDim constrained positions.
func (s *Searcher) repair(ind Individual) {
	constrained := make([]int, 0, len(ind))
	free := make([]int, 0, len(ind))
	for j, v := range ind {
		if v != Wildcard {
			constrained = append(constrained, j)
		} else {
			free = append(free, j)
		}
	}
	for len(constrained) > s.cfg.TargetDim {
		i := s.rng.Intn(len(constrained))
		ind[constrained[i]] = Wildcard
		constrained[i] = constrained[len(constrained)-1]
		constrained = constrained[:len(constrained)-1]
	}
	for len(constrained) < s.cfg.TargetDim {
		i := s.rng.Intn(len(free))
		j := free[i]
		ind[j] = uint8(1 + s.rng.Intn(s.cfg.Phi))
		constrained = append(constrained, j)
		free[i] = free[len(free)-1]
		free = free[:len(free)-1]
	}
}

// mutate either re-draws the range of a constrained dimension or
// moves a constraint to a new dimension.
func (s *Searcher) mutate(ind Individual) {
	var constrained, free []int
	for j, v := range ind {
		if v != Wildcard {
			constrained = append(constrained, j)
		} else {
			free = append(free, j)
		}
	}
	if len(constrained) == 0 {
		return
	}
	if len(free) > 0 && s.rng.Float64() < 0.5 {
		// move a constraint
		from := constrained[s.rng.Intn(len(constrained))]
		to := free[s.rng.Intn(len(free))]
		ind[to] = ind[from]
		ind[from] = Wildcard
	} else {
		// re-draw a range
		j := constrained[s.rng.Intn(len(constrained))]
		ind[j] = uint8(1 + s.rng.Intn(s.cfg.Phi))
	}
}

// bestSet keeps the K distinct sparsest individuals seen.
type bestSet struct {
	k       int
	entries map[string]bestEntry
}

type bestEntry struct {
	ind Individual
	fit float64
}

func newBestSet(k int) *bestSet { return &bestSet{k: k, entries: make(map[string]bestEntry)} }

func (b *bestSet) offer(ind Individual, fit float64) {
	key := ind.key()
	if _, ok := b.entries[key]; ok {
		return
	}
	b.entries[key] = bestEntry{ind: ind.Clone(), fit: fit}
	if len(b.entries) > b.k {
		// Evict the worst; ties broken on the encoding so map
		// iteration order cannot leak into results.
		worstKey := ""
		worstFit := 0.0
		first := true
		for k, e := range b.entries {
			if first || e.fit > worstFit || (e.fit == worstFit && k > worstKey) {
				worstKey, worstFit, first = k, e.fit, false
			}
		}
		delete(b.entries, worstKey)
	}
}

func (b *bestSet) sorted() []bestEntry {
	out := make([]bestEntry, 0, len(b.entries))
	for _, e := range b.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].fit != out[j].fit {
			return out[i].fit < out[j].fit
		}
		return out[i].ind.key() < out[j].ind.key()
	})
	return out
}

// OutlyingSubspacesOf adapts the cell list to the "outlier → spaces"
// task: the dimension sets of sparse cells containing the given
// dataset point, deduplicated and canonically sorted. Only cells with
// negative sparsity (sparser than expectation) qualify.
func (r *Result) OutlyingSubspacesOf(g *Grid, pointIdx int) []subspace.Mask {
	seen := make(map[subspace.Mask]bool)
	for _, c := range r.Cells {
		if c.Sparsity >= 0 {
			continue
		}
		if g.ContainsPoint(c.Individual, pointIdx) {
			seen[c.Individual.Mask()] = true
		}
	}
	out := make([]subspace.Mask, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	subspace.SortMasks(out)
	return out
}
