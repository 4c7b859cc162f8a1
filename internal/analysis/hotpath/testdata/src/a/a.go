package a

import "fmt"

type scratch struct {
	buf  []float64
	tick func()
}

// A clean kernel: arithmetic over preallocated slices only.
//
//hos:hotpath
func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

//hos:hotpath
func badMake(n int) []float64 {
	return make([]float64, n) // want `allocates with make`
}

//hos:hotpath
func badNew() *scratch {
	return new(scratch) // want `allocates with new`
}

//hos:hotpath
func badFmt(n int) {
	fmt.Println(n) // want `calls fmt\.Println`
}

//hos:hotpath
func badGo(f func()) {
	go f() // want `starts a goroutine`
}

//hos:hotpath
func badSliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates`
}

//hos:hotpath
func badMapLit() map[string]int {
	return map[string]int{} // want `map literal allocates`
}

//hos:hotpath
func badAddrLit() *scratch {
	return &scratch{} // want `address of composite literal allocates`
}

//hos:hotpath
func badFreshAppend(x float64) []float64 {
	return append([]float64{}, x) // want `append to a fresh slice allocates` `slice literal allocates`
}

// The clone idiom appends to a converted nil: a fresh slice too.
//
//hos:hotpath
func badCloneAppend(xs []float64) []float64 {
	return append([]float64(nil), xs...) // want `append to a fresh slice allocates`
}

// Appending into a recycled buffer is the blessed capacity-reuse
// pattern and is not flagged.
//
//hos:hotpath
func reuseAppend(s *scratch, x float64) {
	s.buf = append(s.buf[:0], x)
}

//hos:hotpath
func badEscape(s *scratch) {
	s.tick = func() {} // want `function literal escapes`
}

//hos:hotpath
func badConcat(a, b string) string {
	return a + b // want `non-constant string concatenation`
}

type boxer interface{ m() }
type impl struct{}

func (impl) m() {}

//hos:hotpath
func badBox(v impl) boxer {
	return boxer(v) // want `conversion to interface allocates`
}

// Warm-up guards: growth happens once per scratch lifetime, so the
// nil / cap forms are exempt.
//
//hos:hotpath
func warm(s *scratch, n int) {
	if s.buf == nil {
		s.buf = make([]float64, n)
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, 0, n)
	}
	s.buf = s.buf[:n]
}

// Cold guard: an early-exit error path may allocate; it is never on
// the steady-state loop.
//
//hos:hotpath
func guarded(a []float64) error {
	if len(a) == 0 {
		return fmt.Errorf("empty input")
	}
	return nil
}

// A literal bound to a local or passed to an ordinary call does not
// escape: the visitor-callback pattern stays legal.
//
//hos:hotpath
func visitor(a []float64) float64 {
	total := 0.0
	add := func(v float64) { total += v }
	each(a, add)
	each(a, func(v float64) { total += v })
	return total
}

func each(a []float64, f func(float64)) {
	for _, v := range a {
		f(v)
	}
}

// Unannotated helpers may allocate freely.
func coldAlloc(n int) []float64 {
	return make([]float64, n)
}

type index struct{}

// KNN is a benchmarked entry-point name: the annotation is required.
func (ix *index) KNN(q []float64, k int) int { // want `missing the //hos:hotpath annotation`
	return k
}

type decider struct{}

// AtLeast, the k-NN decision every lattice evaluation asks, is a
// benchmarked entry-point name too.
func (dc *decider) AtLeast(q []float64, t float64) bool { // want `missing the //hos:hotpath annotation`
	return dist(q, q) >= t
}

// A plain function of that name is not a method and needs nothing.
func AtLeast(sum, t float64) bool { return sum >= t }

type miner struct{}

//hos:hotpath
func (m *miner) QueryWith(q []float64) float64 {
	return dist(q, q)
}
