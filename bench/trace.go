package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/knn"
	"repro/internal/subspace"
)

// Trace headers: the traced pass tags each timed request with its
// request id and the id of its client-side roundtrip span, so the
// handler span recorded by the middleware can name its parent.
const (
	reqHeader    = "X-Bench-Req"
	parentHeader = "X-Bench-Parent"
)

// tagHeader returns the trace headers for one request.
func tagHeader(req, parent int64) http.Header {
	return http.Header{
		reqHeader:    []string{strconv.FormatInt(req, 10)},
		parentHeader: []string{strconv.FormatInt(parent, 10)},
	}
}

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch (one monotonic clock: the
// traced server runs inside the benchmark process).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// KNNCalls and KNNNs fold the k-NN calls made under a core.search
	// span into counts: a cold d=12 query makes hundreds of them, and
	// keeping each as a span would grow the trace with the lattice.
	KNNCalls int64 `json:"knn_calls,omitempty"`
	KNNNs    int64 `json:"knn_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is p's duration minus the part of it that any child
// covers. Children may overlap each other (concurrent work) and may
// stick out of p; only the union of their intervals inside p counts.
func selfTime(p span, children []span) int64 {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if s < e {
			iv = append(iv, span{Start: s, End: e})
		}
	}
	slices.SortFunc(iv, func(a, b span) int { return int(a.Start - b.Start) })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range iv {
		if c.Start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.Start, c.End
			continue
		}
		curE = max(curE, c.End)
	}
	if curE > curS {
		covered += curE - curS
	}
	return p.dur() - covered
}

// tracer keeps spans in memory; they are written out once, at the end
// of the traced pass.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
	// handled carries the handler span of the one tagged request in
	// flight (the traced pass is single-threaded) back to the client.
	handled chan span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), handled: make(chan span, 1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id, so a roundtrip span's id can travel in the
// request before the span itself is complete.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// add records s, assigning it an id unless it already has one.
func (t *tracer) add(s span) span {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// middleware times the server's handler for tagged requests; untagged
// requests pass through untouched (the traced pass interleaves them to
// measure the tracing overhead).
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		start := t.now()
		next.ServeHTTP(w, r)
		t.handled <- t.add(span{Parent: parent, Req: req, Name: "server.handler", Start: start, End: t.now()})
	})
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxKNNSamples caps the per-call k-NN durations kept for the
// percentile; the first million calls are a sample, not a bias.
const maxKNNSamples = 1 << 20

// timedSearcher wraps a knn.Searcher and times every call from outside
// the k-NN layer. calls holds the current search's call intervals (the
// caller resets it per search); durations accumulates across searches.
type timedSearcher struct {
	inner     knn.Searcher
	t         *tracer
	calls     []span
	durations []float64 // µs
	retired   knn.SearchStats
}

// swap replaces the wrapped index (a new epoch), keeping the work the
// old one did in total.
func (s *timedSearcher) swap(inner knn.Searcher) {
	s.retired.Add(s.inner.Stats())
	s.inner = inner
}

// total is the work of every index this searcher has wrapped.
func (s *timedSearcher) total() knn.SearchStats {
	st := s.retired
	st.Add(s.inner.Stats())
	return st
}

// KNN times one call of the wrapped index. It sits on the k-NN path it
// measures, so it appends only to recycled buffers.
//
//hos:hotpath
func (s *timedSearcher) KNN(query []float64, sub subspace.Mask, k, exclude int) []knn.Neighbor {
	start := s.t.now()
	res := s.inner.KNN(query, sub, k, exclude)
	end := s.t.now()
	s.calls = append(s.calls, span{Start: start, End: end})
	if len(s.durations) < maxKNNSamples {
		s.durations = append(s.durations, float64(end-start)/1e3)
	}
	return res
}

func (s *timedSearcher) Stats() knn.SearchStats { return s.inner.Stats() }

func (s *timedSearcher) ResetStats() { s.inner.ResetStats() }
